# Each declared bench workload, untraced and traced, must end with "correct": true
# against the bench oracle (Tier-1 never runs the n=250 and n=1000 inputs, nor the
# traced mode, which wraps package functions by name and reads the nu residual).
# Usage: bash ci/bench_correct.sh OUTDIR
set -euo pipefail
out=$1
mkdir -p "$out"
for trace in 0 1; do
  for w in large-sampled large-check large-gossip-check; do
    python3 bench/run.py --workload "$w" --seed 1 --seconds 2 --trace "$trace" | tee "$out/$w.$trace.out"
    tail -n 1 "$out/$w.$trace.out" | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
  done
done
