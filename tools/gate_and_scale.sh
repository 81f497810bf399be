#!/bin/bash
# Wait for a strong host window (2 consecutive probes with
# par_fault >= 10 and first_touch >= 1.0), then run the full
# interleaved scaling protocol and archive the artifact.
# Usage: tools/gate_and_scale.sh RUN_NAME [MAX_WAIT_MIN]
set -u
cd "$(dirname "$0")/.."
RUN=${1:?run name}
MAXMIN=${2:-90}
DEADLINE=$(( $(date +%s) + MAXMIN*60 ))
STREAK=0
while :; do
  OK=$(python - 2>/dev/null <<'EOF' | tail -n 1
import bench
p = bench._host_probe()
pf = p.get("par_fault_agg_gbps") or 0
ft = p.get("first_touch_gbps") or 0
se = p.get("par_sha_eff") or 0
print(int(pf >= 10.0 and ft >= 1.0 and se >= 0.55), pf, ft, se)
EOF
)
  # a failed or garbled probe counts as a closed gate (read leaves
  # missing fields empty, never unbound under set -u)
  read -r GATE PF FT SE <<< "${OK:-}" || true
  echo "$(date +%H:%M:%S) gate=${GATE:-?} par_fault=${PF:-?} first_touch=${FT:-?} sha_eff=${SE:-?}"
  if [ "${GATE:-0}" = 1 ] && [ -n "${SE:-}" ]; then STREAK=$((STREAK+1)); else STREAK=0; fi
  if [ $STREAK -ge 2 ]; then break; fi
  if [ "$(date +%s)" -ge "$DEADLINE" ]; then
    echo "gate timeout after ${MAXMIN}m; launching anyway (probe-gated per trial)"
    break
  fi
  sync; sleep 60
done
echo "$(date +%H:%M:%S) launching scaling protocol -> bench_artifacts/${RUN}.json"
# stderr stays out of bench_artifacts/ (only result JSON is archived)
ERR="${TMPDIR:-/tmp}/gate_and_scale.${RUN}.err"
python bench.py --scaling > "bench_artifacts/${RUN}.json" 2> "$ERR"
rc=$?
echo "$(date +%H:%M:%S) done rc=$rc (stderr: $ERR)"
if [ "$rc" -ne 0 ]; then exit "$rc"; fi
python - <<EOF
import json
d = json.load(open("bench_artifacts/${RUN}.json"))
q = d["queries"]
print("eff_8_to_32", q["eff_8_to_32"], "rounds", q["round_effs_8_to_32"])
print("eff_4_to_16", q["eff_4_to_16"], "rounds", q["round_effs_4_to_16"])
EOF
