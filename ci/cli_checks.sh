# The CLI checks of both CI jobs: the paper's three examples, its Remark-1
# regime and the error lines, run through the installed `hybridconsensus`.
# Usage: bash ci/cli_checks.sh OUTDIR   (PYTHONDEVMODE=1 runs them in dev mode)
set -euo pipefail
out=$1
mkdir -p "$out"

# expect CODE TEXT CMD...: CMD exits CODE and writes exactly TEXT to stderr;
# else its stderr is shown, and expect fails
expect() {
  local want=$1 text=$2 code=0
  shift 2
  "$@" 2> "$out/stderr" || code=$?
  if [ "$code" -ne "$want" ] || ! printf '%s' "$text" | cmp -s - "$out/stderr"; then
    cat "$out/stderr" >&2
    printf 'got exit %s and the stderr above, want exit %s and %q, from: %s\n' "$code" "$want" "$text" "$*" >&2
    return 1
  fi
}
# ok CMD...: CMD exits 0 and writes nothing to stderr (in dev mode, an
# unclosed file would print a ResourceWarning there)
ok() { expect 0 '' "$@"; }
# fails CODE LINE CMD...: CMD exits CODE, and its stderr is the one line LINE
fails() { expect "$1" "$2"$'\n' "${@:3}"; }

ok hybridconsensus check presets/example1.cfg
# every key flag, each read by its parser in the config's key table
ok hybridconsensus check presets/example3.cfg --case 3 --m 3 --h 0.2 --x0=-13,14,3,-9,-3,6 --steps 10 --dense-per-step 2 --seed 1 --trials 2 --probs uniform --tol 1e-6
ok hybridconsensus run presets/example1.cfg --out "$out/example1"
ok hybridconsensus run presets/example2.cfg --out "$out/example2"
ok hybridconsensus run presets/example3.cfg --out "$out/example3"
# gossip trials about 1e160 apart: their squared deviations overflowed the standard
# error to inf, and the infinite 4-standard-error band made the run "converge"
fails 2 "converged = False does not match solvable = True" hybridconsensus run presets/example3.cfg --steps 5 --x0=1e160,-1e160,1e160,-1e160,1e160,-1e160 --out "$out/band"
# Remark 1: every e^{-d_ii h} underflows to 0, and the root class is periodic
ok hybridconsensus run presets/example1.cfg --case 2 --m 6 --h 1e3 --out "$out/remark1"
# ROADMAP item 15: at h = 40 the verdict says solvable, but e^{-h} x is below half an
# ulp of a neighbour's value, so the stepper only permutes x; its fix changes this line
fails 2 "converged = False does not match solvable = True" hybridconsensus run presets/example1.cfg --case 2 --m 6 --h 40 --out "$out/h40"
# no step: the CSV writer's final-step-only path, the header and the 6 sample rows
fails 2 "converged = False does not match solvable = True" hybridconsensus run presets/example1.cfg --steps 0 --out "$out/steps0"
[ "$(wc -l < "$out/steps0/trajectory.csv")" -eq 7 ] || { echo "steps0: trajectory.csv is not 7 lines" >&2; exit 1; }
# agents 2e308 apart: strict JSON refuses the infinite spread, and run writes no file
# (ROADMAP item 21's relative-spread rule changes this line)
fails 2 "error: Out of range float values are not JSON compliant: inf" hybridconsensus run presets/example1.cfg --steps 0 --x0=1e308,-1e308,1e308,-1e308,1e308,-1e308 --out "$out/overflow"
[ ! -e "$out/overflow/trajectory.csv" ] || { echo "overflow: trajectory.csv was written" >&2; exit 1; }
ok hybridconsensus matrix presets/example3.cfg
ok hybridconsensus bounds presets/example3.cfg
# bounds builds no case matrix: the system's schedule, built as the config loads, rejects the graph
fails 2 "error: gossip requires a symmetric graph" hybridconsensus bounds presets/example1.cfg --case 3
# and an h over every bound is the matrix's to refuse, so bounds prints them
ok hybridconsensus bounds presets/example1.cfg --h 2
# the probability sum is printed as a plain float under numpy 1.x and 2.x alike
fails 2 'error: probabilities must sum to 1, got 0.7' \
  hybridconsensus check presets/example3.cfg --probs 0.1,0.1,0.1,0.1,0.1,0.1,0.1
# a list that starts with "-" may follow its flag as its own token
ok hybridconsensus check presets/example1.cfg --h 0.2 --x0 -13,14,3,-9,-3,6 > "$out/x0.out"
ok hybridconsensus check presets/example1.cfg --h 0.2 --x0=-13,14,3,-9,-3,6 | cmp - "$out/x0.out"
# and after a prefix of its flag, which argparse expands
ok hybridconsensus check presets/example1.cfg --h 0.2 --x -13,14,3,-9,-3,6 | cmp - "$out/x0.out"
# a key flag's value that starts with "-" is the value, read as its file line is
fails 2 "error: sampling period must be positive and finite, got -1000.0" hybridconsensus check presets/example1.cfg --h -1e3
# a flag's bad value is the file line's parse error (exit 1), not an argparse usage error
fails 1 "error: bad value for 'h': could not convert string to float: 'abc'" \
  hybridconsensus check presets/example1.cfg --h abc
# `paper` is no x0: each preset writes out the paper's state
fails 1 "error: bad value for 'x0': could not convert string to float: 'paper'" hybridconsensus check presets/example1.cfg --x0 paper
# every comma field is a value: an empty one is no value to drop
fails 1 "error: bad value for 'x0': could not convert string to float: ''" hybridconsensus check presets/example1.cfg --x0=1,,2,3,4,5,6
# 10^18 vertices: the reader's order key reaches n * (n + 1), which overflows an index, so
# the header is refused before anything n long is allocated (a MemoryError escaped before)
printf 'n 1000000000000000000\n1 2 1.0\n2 1 1.0\n' > "$out/huge.edges"
printf 'graph = huge.edges\ncase = 1\nm = 1\nh = 0.1\nx0 = 0, 1\n' > "$out/huge.cfg"
fails 1 "error: $(cd "$out" && pwd -P)/huge.edges:1: no room for 1000000000000000000 vertices: n * (n + 1) overflows an index" \
  hybridconsensus check "$out/huge.cfg"
# a missing config file is I/O (exit 1), reported with the OS's message
fails 1 "error: [Errno 2] No such file or directory: '/nonexistent/exp.cfg'" \
  hybridconsensus check /nonexistent/exp.cfg
