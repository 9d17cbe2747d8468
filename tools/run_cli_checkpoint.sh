#!/bin/sh
# Drives `karousos audit --checkpoint/--resume` over both input forms: a
# monolithic (trace, advice) pair and the KSEG containers of the same run.
# For each, the checkpointed audit must write its checkpoint, resuming from
# it must reach the uninterrupted verdict, and a missing --resume file must
# fail with exit 1.
#
#   usage: run_cli_checkpoint.sh <karousos-binary> <work-dir>
set -u

bin="$1"
dir="$2"
rm -rf "$dir"
mkdir -p "$dir" || exit 1

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$bin" serve --app stacks --requests 120 --concurrency 6 --seed 7 \
    --out-trace "$dir/t.bin" --out-advice "$dir/a.bin" \
    --out-segments "$dir/seg" --epoch-size 20 >/dev/null || fail "serve"

for form in monolithic segments; do
  if [ "$form" = monolithic ]; then
    set -- --trace "$dir/t.bin" --advice "$dir/a.bin"
  else
    set -- --segments "$dir/seg"
  fi
  want="$("$bin" audit --app stacks "$@" --epoch-size 20 | tail -n 1)"
  case "$want" in
    ACCEPTED*) ;;
    *) fail "$form: uninterrupted audit did not accept: $want" ;;
  esac
  ck="$dir/$form.ckpt"
  got="$("$bin" audit --app stacks "$@" --epoch-size 20 --checkpoint "$ck" | tail -n 1)"
  [ "$got" = "$want" ] || fail "$form: checkpointed audit: $got"
  [ -s "$ck" ] || fail "$form: --checkpoint wrote no file"
  got="$("$bin" audit --app stacks "$@" --epoch-size 20 --resume "$ck" | tail -n 1)"
  [ "$got" = "$want" ] || fail "$form: resumed audit: $got"
  "$bin" audit --app stacks "$@" --epoch-size 20 --resume "$dir/missing.ckpt" >/dev/null 2>&1
  [ $? -eq 1 ] || fail "$form: a missing --resume file did not exit 1"
done
echo "checkpoint/resume check passed (monolithic and segments)"
