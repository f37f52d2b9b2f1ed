#!/usr/bin/env bash
# `lfi_tool replay` runs every record on persistent workers forked from one
# post-setup target (core/fork_server.h); each record starts from the
# post-setup state through the worker's Reset(). Its --json bytes must not
# depend on how many workers run at once, on where the target is built
# (--cold-start: per record, in the workers, instead of once before the
# forks) or on a generous --job-timeout-ms, for pbft and bfs journals. A
# failpoint must count its hits per record, as in a fresh fork. A worker
# killed by a failpoint, or by its record's deadline, must fail only that
# record, and replay must then exit 1.
#
# Usage: replay_cli_test.sh path/to/lfi_tool
set -u
tool=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# One replay entry per line: line 1 also holds the header, the last line
# also the expected/reproduced summary.
entries() {
  sed 's/},{/}\n{/g' "$1"
}

"$tool" explore pbft --strategy coverage --budget 16 --seed 1 --journal pbft.lfij > /dev/null \
  || fail "recording the pbft journal"
"$tool" explore bfs --strategy coverage --budget 48 --seed 1 --journal bfs.lfij > /dev/null \
  || fail "recording the bfs journal"

for system in pbft bfs; do
  "$tool" replay "$system.lfij" --workers 1 --json > "$system.json" \
    || fail "replay $system.lfij exited $?"
  grep -q '"crashed":true' "$system.json" || fail "replay $system.lfij reproduced no crash"
  for flags in "--workers 4" "--cold-start" "--workers 4 --cold-start" \
               "--workers 4 --job-timeout-ms 60000"; do
    # shellcheck disable=SC2086  # $flags is a list of options
    "$tool" replay "$system.lfij" $flags --json > other.json || fail "replay $system $flags exited $?"
    cmp -s "$system.json" other.json || fail "replay $system $flags --json differs from --workers 1"
  done
done

# A scopeless failpoint due on its second hit never fires: every record
# evaluates engine.job.run once, from the counts its worker was forked with.
for workers in 1 4; do
  "$tool" replay pbft.lfij --workers "$workers" --failpoints 'engine.job.run=exit:9@2' --json \
    > counted.json || fail "replay with engine.job.run=exit:9@2 at --workers $workers exited $?"
  cmp -s pbft.json counted.json \
    || fail "engine.job.run=exit:9@2 changed replay --json at --workers $workers"
done

# Record 1's worker dies at the job failpoint: record 1 reads crashed at
# the exit, every other entry is unchanged.
rc=0
"$tool" replay pbft.lfij --workers 4 --failpoints "replay1:engine.job.run=exit:9" --json \
  > crash.json || rc=$?
[ "$rc" -eq 1 ] || fail "replay with a dead child exited $rc, want 1"
entries pbft.json > clean.txt
entries crash.json > crash.txt
want=$(sed -n 2p clean.txt | sed -e 's/"crashed":[a-z]*,"where":"[^"]*"/"crashed":true,"where":"child process exited with status 9"/' \
                               -e 's/"reproduced":true/"reproduced":false/')
[ "$(sed -n 2p crash.txt)" = "$want" ] || fail "dead child's record: $(sed -n 2p crash.txt)"
[ "$(sed 2d clean.txt)" = "$(sed 2d crash.txt)" ] || fail "a dead child changed other records"

# Record 0's worker hangs at the job failpoint: past --job-timeout-ms it is
# killed and record 0 reads the engine's deterministic hang; the rest still
# run. replay.deadline expires the first armed deadline, record 0's, at once,
# so no clock is waited out; the generous deadline leaves the healthy
# records room to finish under sanitizers.
rc=0
timeout 60 "$tool" replay pbft.lfij --workers 4 \
  --failpoints "replay0:engine.job.run=hang,replay.deadline=error" \
  --job-timeout-ms 5000 --json > hang.json || rc=$?
[ "$rc" -eq 1 ] || fail "replay with a hung child exited $rc, want 1"
entries hang.json > hang.txt
grep -q '"record":0,"injection":0,[^}]*"crashed":true,"where":"unresponsive under injected fault: replay 0:0 of pbft.lfij"' \
  hang.txt || fail "hung child's record: $(sed -n 1p hang.txt)"
lines=$(wc -l < clean.txt)
[ "$(sed -n "2,$((lines - 1))p" clean.txt)" = "$(sed -n "2,$((lines - 1))p" hang.txt)" ] \
  || fail "a hung child changed other records"

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "replay output is independent of width and bring-up; dead workers stay isolated"
