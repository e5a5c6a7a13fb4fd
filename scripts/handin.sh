#!/usr/bin/env bash
# Lists every process a verification run can leave behind — sliderd, the
# benchmark binary, go test, go run and go-build test binaries — except
# this script and its ancestors, and exits 1 if there is any. Run it on
# its own, as the last command: it prints nothing and exits 0 when
# nothing is left running.
#
#   bash scripts/handin.sh
set -u

# The shell that started this script may carry any of the patterns in
# its own command line (bash -c 'go test ./...; bash scripts/handin.sh'),
# so every ancestor is exempt, not just this process.
skip=" "
pid=$$
while [ "${pid:-0}" -gt 1 ]; do
	skip+="$pid "
	pid=$(ps -o ppid= -p "$pid" | tr -d ' ')
done

left=0
while read -r pid args; do
	case "$skip" in *" $pid "*) continue ;; esac
	case "$args" in
	*sliderd* | *.bench_build/benchmark* | *"go test"* | *"go run"* | *go-build*)
		echo "$pid $args"
		left=1
		;;
	esac
done < <(ps -eo pid=,args=)
exit "$left"
