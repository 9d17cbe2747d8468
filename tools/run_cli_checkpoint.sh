#!/bin/sh
# Drives `karousos audit --checkpoint/--resume` over both input forms: a
# monolithic (trace, advice) pair and the KSEG containers of the same run.
# For each, the checkpointed audit must write its checkpoint, resuming from
# it must reach the uninterrupted verdict (with or without --epoch-size: the
# checkpoint records it), a conflicting --epoch-size must exit 2, and a
# missing --resume file must fail with exit 1. Last, a resume over containers
# whose first advice frame is damaged must reject: the frames a checkpoint
# covers are skipped, not trusted.
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
  got="$("$bin" audit --app stacks "$@" --resume "$ck" | tail -n 1)"
  [ "$got" = "$want" ] || fail "$form: resumed audit without --epoch-size: $got"
  "$bin" audit --app stacks "$@" --epoch-size 10 --resume "$ck" >/dev/null 2>&1
  [ $? -eq 2 ] || fail "$form: an --epoch-size the checkpoint contradicts did not exit 2"
  "$bin" audit --app stacks "$@" --epoch-size 20 --resume "$dir/missing.ckpt" >/dev/null 2>&1
  [ $? -eq 1 ] || fail "$form: a missing --resume file did not exit 1"
done
# Flip the last payload byte of the epoch-0 advice frame: the byte just before
# the epoch-1 frame's offset, as `inspect` prints it.
mkdir -p "$dir/bad" || exit 1
cp "$dir/seg/trace.kseg" "$dir/seg/advice.kseg" "$dir/bad/" || fail "copy containers"
next="$("$bin" inspect --advice "$dir/bad/advice.kseg" |
  awk '$2 == "advice" && $3 == "epoch" && $4 == 1 { sub("@", "", $1); print $1; exit }')"
[ -n "$next" ] || fail "inspect printed no offset for the epoch-1 advice frame"
pos=$((next - 1))
byte="$(od -An -tu1 -j "$pos" -N1 "$dir/bad/advice.kseg" | tr -d ' ')"
printf "\\$(printf '%03o' $((byte ^ 1)))" |
  dd of="$dir/bad/advice.kseg" bs=1 seek="$pos" count=1 conv=notrunc 2>/dev/null ||
  fail "flip a payload byte"
out="$("$bin" audit --app stacks --segments "$dir/bad" --resume "$dir/segments.ckpt")"
status=$?
got="$(printf '%s\n' "$out" | tail -n 1)"
[ $status -eq 1 ] || fail "resume over a damaged first frame exited $status: $got"
case "$got" in
  "REJECTED: segment stream: KAR-SEG-001 "*) ;;
  *) fail "resume over a damaged first frame: $got" ;;
esac
echo "checkpoint/resume check passed (monolithic and segments, damaged prefix rejected)"
