#!/usr/bin/env bash
# lfi_tool's command-line contract: the exit codes of the historical
# spellings, malformed flag values refused before anything runs, the full
# seed range, the refusal to resume a shard artifact, and the `resume
# --json` bytes of a Table 1 journal.
#
# Usage: lfi_tool_cli_test.sh path/to/lfi_tool
set -u
tool=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
failures=0

# expect STATUS ARGS...: runs lfi_tool ARGS, leaving its stdout in out.txt.
expect() {
  local want=$1
  shift
  "$tool" "$@" > out.txt 2> err.txt
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: lfi_tool $* exited $got, want $want"
    cat err.txt
    failures=$((failures + 1))
  fi
}

expect 0 campaign git 2                    # bare worker count
expect 2 campaign git --bogus              # unknown option
expect 2 explore pbft --budget 12abc
expect 2 explore pbft --repair             # doctor-only
expect 2 shard pbft --shard 1/4 --journal s.lfij
expect 2 shard pbft --shards 1 --journal s.lfij
expect 2 explore pbft --shard 1/4 --journal s.lfij   # --shards N is the one way to shard
expect 2 explore pbft --shard 4/4 --journal s.lfij
expect 2 merge m.lfij s.lfij.shard0 s.lfij.shard1     # no merge subcommand
expect 0 explore git --strategy random --budget 4 --seed 0x8000000000000000
expect 0 explore git --strategy random --budget 4 --seed 18446744073709551615

# A malformed value is a usage error that runs nothing: no journal appears.
case=0
for flag in '--budget 12abc' '--shard x/2' '--shards -1' '--workers two' '--bogus'; do
  case=$((case + 1))
  expect 2 explore git --strategy random --journal "bad$case.lfij" $flag
  if [ -e "bad$case.lfij" ]; then
    echo "FAIL: explore git $flag created bad$case.lfij"
    failures=$((failures + 1))
  fi
done
expect 0 explore git --strategy random --budget 2 --journal ok.lfij

# A shard's artifact is not a campaign of its own: resuming it is refused,
# naming the merged journal's resume.
expect 0 shard git --strategy random --budget 4 --shards 2 --journal sh.lfij
expect 1 resume sh.lfij.shard0
grep -q 'resume MERGED --shards N' err.txt || {
  echo "FAIL: resume of a shard artifact: $(cat err.txt)"
  failures=$((failures + 1))
}

expect 0 campaign git --journal t1.lfij
expect 0 resume t1.lfij --json
want='{"command":"resume","system":"git","strategy":"campaign","budget":0,"seed":0,"scenarios_run":7,"coverage":{"recovery_blocks":18,"covered_recovery_blocks":2,"total_blocks":32,"covered_blocks":16,"covered_lines":226},"bugs":[{"system":"git","kind":"SIGSEGV","where":"readdir","injected":"opendir@list_branches+0x428"},{"system":"git","kind":"SIGSEGV","where":"xmerge.c:567 result buffer","injected":"malloc@xdl_do_merge+0x568"},{"system":"git","kind":"SIGSEGV","where":"xmerge.c:571 marker buffer","injected":"malloc@xdl_do_merge+0x588"},{"system":"git","kind":"SIGSEGV","where":"xpatience.c:191 histogram table","injected":"malloc@patience_diff+0x5b8"},{"system":"git","kind":"data loss","where":"repository corrupted by hook environment","injected":"setenv@run_hook+0x4b8"}],"count":5}'
if [ "$(cat out.txt)" != "$want" ]; then
  echo "FAIL: resume --json of a Table 1 journal changed:"
  cat out.txt
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "lfi_tool command-line contract holds"
