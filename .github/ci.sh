# Shell helpers of the steps in .github/workflows/tests.yml. Each step sources
# this file from the repository root: `. .github/ci.sh`.

# expect CODE NEEDLE COMMAND...: runs COMMAND, its stderr into expect.err, and
# fails unless COMMAND exits CODE, its stderr holds NEEDLE (no needle when
# NEEDLE is empty) and its stderr shows no traceback, warning or exception the
# interpreter ignored at exit
expect() {
  local want="$1" needle="$2" code=0
  shift 2
  "$@" 2> expect.err || code=$?
  cat expect.err >&2
  if [ "$code" -ne "$want" ]; then
    echo "expect: exit $code, not $want: $*" >&2
    return 1
  fi
  if [ -n "$needle" ] && ! grep -qF -- "$needle" expect.err; then
    echo "expect: stderr lacks '$needle': $*" >&2
    return 1
  fi
  if grep -qE "Traceback|Warning|Exception ignored" expect.err; then
    echo "expect: a traceback or a warning on stderr: $*" >&2
    return 1
  fi
}

# bench_smoke WORKLOAD TRACE SHARE: a 2 s bench/run.py pass of WORKLOAD, with
# the per-layer tracer when TRACE is 1; fails unless its result, the JSON of
# its last line, says every op passed its output oracle and SHARE (a fraction
# such as 0 or 1/11) of its ops failed
bench_smoke() {
  python3 bench/run.py --workload "$1" --seed 1 --seconds 2 --trace "$2" \
    | tee /dev/stderr | tail -n 1 \
    | python3 -c 'import json, sys
from fractions import Fraction
r = json.load(sys.stdin)
share = Fraction(r["failed"], r["attempted"])
sys.exit(0 if r["correct"] is True and share == Fraction(sys.argv[1]) else 1)' "$3"
}
