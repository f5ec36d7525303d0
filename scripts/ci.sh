#!/usr/bin/env bash
# Full local CI: release build, test suite, lint wall, and a one-dataset
# end-to-end smoke run. Run from anywhere; exits non-zero on first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release -q -p similarity (bit identity under release codegen)"
# The kernels' bit-identity proptests, again under the optimized codegen
# the benchmarks measure: the test profile keeps debug assertions, and a
# float expression the optimizer folds differently would show only here.
cargo test --release -q -p similarity

echo "==> cargo test --release -q -p corleone (column scans under release codegen)"
# The candidate matrix's column scans (forest votes, rule coverage) and
# their layout tests, again under the codegen the benchmark measures.
cargo test --release -q -p corleone

echo "==> e2e_bench tests (builds the benchmark, runs --quick end to end)"
# e2e_bench is its own Cargo workspace, so the root `cargo test` never
# builds it; this stage fails when a library change breaks the API the
# benchmark compiles against or any of its output checks.
cargo test -q --manifest-path e2e_bench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> corleone-lint (determinism & robustness contract, D1-D9)"
# Fails CI on any un-annotated finding. The machine-readable report is kept
# at target/lint-report.json (the CI artifact of record); the human pass
# prints the allow-annotation inventory (rule, file:line, reason) so waivers
# stay reviewable in the log, plus per-rule finding/waiver counts.
mkdir -p target
if ! cargo run --release -q -p lint --bin corleone-lint -- --json > target/lint-report.json; then
    cat target/lint-report.json >&2
    echo "corleone-lint: un-annotated findings (see target/lint-report.json)" >&2
    exit 1
fi

echo "==> corleone-lint waiver ratchet (lint-baseline.json)"
# The waiver inventory can only shrink: the ratchet fails on any unused
# allow, any rule over its committed per-rule budget, or any finding, and
# prints lint_ratchet=ok otherwise. The grep turns a silently-missing
# marker into a CI failure, same as the *_equivalence=ok markers below.
ratchet_log=$(mktemp)
cargo run --release -q -p lint --bin corleone-lint -- --stats --ratchet lint-baseline.json \
    | tee "$ratchet_log"
grep -q "lint_ratchet=ok" "$ratchet_log" \
    || { echo "FAIL: corleone-lint did not report lint_ratchet=ok"; exit 1; }
rm -f "$ratchet_log"

echo "==> bad command lines exit 2 with a reason"
# A malformed flag value must end in a message and exit code 2, never a
# panic (exit code 101).
bad_lines=(
    "bench blocking_perf --scales abc"
    "service corleone-serve --threads x"
    "datagen gen_dataset restaurants --scale abc"
    "datagen gen_dataset restaurants --scale"
)
for bad in "${bad_lines[@]}"; do
    read -r pkg bin flags <<< "$bad"
    code=0
    # shellcheck disable=SC2086 # the flags are split on purpose
    cargo run --release -q -p "$pkg" --bin "$bin" -- $flags 2> /dev/null || code=$?
    [ "$code" -eq 2 ] \
        || { echo "FAIL: $bin $flags exited $code, expected 2"; exit 1; }
done

echo "==> smoke run (restaurants, scale 0.05, 1 run)"
cargo run --release -q -p bench --bin smoke -- \
    --datasets restaurants --scale 0.05 --runs 1

echo "==> blocking hot-path perf smoke (quick: all three datasets, scale 0.05)"
# Sanity-checks the precomputed-analysis kernels against the string
# reference (the bin asserts bit-identity internally) and keeps the
# blocking_perf harness itself from rotting. Quick numbers go to a temp
# file so the committed BENCH_blocking.json (full-scale run) is untouched.
# Per dataset the bin prints five markers once each, after asserting:
# index_equivalence=ok (the indexed join's candidate list is
# byte-identical to the Cartesian scan's, for the bench rules and for a
# prefix, a containment and a missing-value rule), char_equivalence=ok (per-pair
# bit identity of the bit-parallel/scratch char kernels against the
# string reference) and arena_equivalence=ok (every pair's full feature
# vector off the arena views equals the string path's with to_bits
# equality), run_equivalence=ok (every row of a matrix built run by
# run over a blocker-sample-shaped pair list equals the string path's
# vector of its pair with to_bits equality), and rule_equivalence=ok (the
# scan's rule sweep keeps exactly the pairs the pair-by-pair string-path
# rule filter keeps on its sampled A rows). The loop turns a
# silently-missing assertion, or a dataset the quick run skipped, into a
# CI failure.
perf_tmp=$(mktemp)
perf_log=$(mktemp)
cargo run --release -q -p bench --bin blocking_perf -- --quick --kinds --out "$perf_tmp" \
    | tee "$perf_log"
for marker in index_equivalence char_equivalence arena_equivalence run_equivalence \
    rule_equivalence; do
    for ds in restaurants citations products; do
        n=$(grep -c "^$marker=ok dataset=$ds " "$perf_log" || true)
        [ "$n" -eq 1 ] \
            || { echo "FAIL: blocking_perf printed $marker=ok for $ds $n times, expected once"; exit 1; }
    done
done
rm -f "$perf_tmp" "$perf_log"

echo "==> fault-injection smoke (30% HIT expiry, 20% abandonment)"
# The run must finish without a panic and report a labeled termination
# (or a typed "run failed" line) — that is the whole acceptance bar.
fault_out=$(cargo run --release -q -p bench --bin smoke -- \
    --datasets restaurants --scale 0.05 --runs 1 \
    --fault-expiry 0.3 --fault-abandon 0.2)
echo "$fault_out"
if ! echo "$fault_out" | grep -qE "termination=|run failed:"; then
    echo "fault smoke produced neither a termination label nor a typed error" >&2
    exit 1
fi

echo "==> kill-and-resume smoke (noisy crowd, faults, --checkpoint-every 1)"
# Crash-safety contract: a faulty checkpointed run, "killed" by throwing
# away everything after a snapshot and resumed from it, must end with a
# final report byte-identical to the uninterrupted reference, from every
# snapshot it wrote. The noisy crowd (--error 0.1) keeps the run
# iterating, so the snapshots include a real iteration boundary, not only
# the post-blocking one. Snapshots carry no wall-clock, so the reference
# is written twice and the two snapshot directories must be identical.
ckpt_dir=$(mktemp -d)
trap 'rm -rf "$ckpt_dir"' EXIT
ckpt_flags=(--datasets restaurants --scale 0.05 --runs 1 --error 0.1)
for copy in a b; do
    cargo run --release -q -p bench --bin smoke -- "${ckpt_flags[@]}" \
        --fault-expiry 0.1 --fault-abandon 0.05 \
        --checkpoint-dir "$ckpt_dir/snaps-$copy" --checkpoint-every 1 --checkpoint-keep 0 \
        --emit-json "$ckpt_dir/reference-$copy"
done
diff -r "$ckpt_dir/snaps-a" "$ckpt_dir/snaps-b" \
    || { echo "FAIL: two identical checkpointed runs wrote different snapshots"; exit 1; }
snaps=("$ckpt_dir"/snaps-a/restaurants-run0/snap-*.json)
[ "${#snaps[@]}" -ge 2 ] \
    || { echo "FAIL: expected >= 2 snapshots (an iteration boundary), got ${#snaps[@]}"; exit 1; }
for snap in "${snaps[@]}"; do
    echo "resuming from $snap"
    rm -rf "$ckpt_dir/resumed"
    cargo run --release -q -p bench --bin smoke -- "${ckpt_flags[@]}" \
        --resume-from "$snap" \
        --emit-json "$ckpt_dir/resumed"
    if ! diff -q "$ckpt_dir/reference-a/restaurants.json" "$ckpt_dir/resumed/restaurants.json"; then
        echo "resume from $snap diverged from the uninterrupted reference" >&2
        exit 1
    fi
done
echo "all ${#snaps[@]} snapshots resume byte-identically; both reference runs wrote identical snapshots"

echo "==> service smoke (3 concurrent tenants, kill mid-flight, restart)"
# The multi-tenant durability contract end-to-end through the corleone-serve
# bin: run three tenants uninterrupted for reference, then the same three
# against a fresh checkpoint root but killed after a few scheduling quanta
# (--max-ticks), then restart over the same root. Every tenant must
# resume (tenants_resumed=3 in the service_perf line) and every final
# report must be byte-identical to the uninterrupted reference.
svc_dir=$(mktemp -d)
trap 'rm -rf "$ckpt_dir" "$svc_dir"' EXIT
serve_flags=(--datasets restaurants,citations,products --scale 0.08 --seed 7 --quiet)
cargo run --release -q -p service --bin corleone-serve -- \
    "${serve_flags[@]}" --root "$svc_dir/reg-ref" --out "$svc_dir/ref"
kill_out=$(cargo run --release -q -p service --bin corleone-serve -- \
    "${serve_flags[@]}" --root "$svc_dir/reg" --out "$svc_dir/resumed" --max-ticks 4)
echo "$kill_out" | grep -q '"killed"' \
    || { echo "FAIL: --max-ticks 4 did not interrupt the service mid-flight"; exit 1; }
resume_out=$(cargo run --release -q -p service --bin corleone-serve -- \
    "${serve_flags[@]}" --root "$svc_dir/reg" --out "$svc_dir/resumed")
echo "$resume_out" | grep -q '"tenants_resumed":3' \
    || { echo "FAIL: restarted service did not resume all 3 tenants"; exit 1; }
for ds in restaurants citations products; do
    if ! diff -q "$svc_dir/ref/$ds.json" "$svc_dir/resumed/$ds.json"; then
        echo "service tenant $ds diverged after kill-and-restart" >&2
        exit 1
    fi
done
echo "all 3 tenants resumed; reports byte-identical to the uninterrupted service"

echo "==> corleone-serve with a closed stdout"
# A reader that closes the pipe early ends the event stream, not the run:
# the bin must still write its --out report and exit 0 (pipefail passes
# its exit code through the pipeline).
code=0
cargo run --release -q -p service --bin corleone-serve -- \
    --datasets restaurants --scale 0.05 --out "$svc_dir/piped" | true || code=$?
[ "$code" -eq 0 ] \
    || { echo "FAIL: corleone-serve exited $code when its stdout closed"; exit 1; }
[ -f "$svc_dir/piped/restaurants.json" ] \
    || { echo "FAIL: corleone-serve wrote no report when its stdout closed"; exit 1; }

echo "==> gen_dataset with a closed stdout"
# The dataset generator prints its summary and seed flags through the
# same writer (exec::lines): a closed pipe must still leave the three
# CSVs and exit 0.
code=0
cargo run --release -q -p datagen --bin gen_dataset -- \
    restaurants --scale 0.05 --out "$svc_dir/gen-piped" | true || code=$?
[ "$code" -eq 0 ] \
    || { echo "FAIL: gen_dataset exited $code when its stdout closed"; exit 1; }
for csv in a b gold; do
    [ -f "$svc_dir/gen-piped/$csv.csv" ] \
        || { echo "FAIL: gen_dataset wrote no $csv.csv when its stdout closed"; exit 1; }
done

echo "==> corleone-cli with a closed stdout"
# The CLI prints through the same writer, interactive questions included:
# a closed pipe must still let the run finish, write --out and exit 0.
cli_dir="$svc_dir/cli"
gen_out=$(cargo run --release -q -p datagen --bin gen_dataset -- \
    restaurants --scale 0.05 --out "$cli_dir")
pos=$(echo "$gen_out" | awk '$1 == "--pos" { print $2 }')
neg=$(echo "$gen_out" | awk '$1 == "--neg" { print $2 }')
code=0
cargo run --release -q -p corleone --bin corleone_cli -- \
    --table-a "$cli_dir/a.csv" --table-b "$cli_dir/b.csv" --gold "$cli_dir/gold.csv" \
    --instruction "same restaurant" --pos "$pos" --neg "$neg" --out "$cli_dir/report.json" \
    | true || code=$?
[ "$code" -eq 0 ] \
    || { echo "FAIL: corleone_cli exited $code when its stdout closed"; exit 1; }
[ -f "$cli_dir/report.json" ] \
    || { echo "FAIL: corleone_cli wrote no report when its stdout closed"; exit 1; }

echo "==> smoke with a closed stdout"
# The bench bins print through the same writer (exec::lines): a
# closed pipe ends the printing, not the runs, so smoke must still run
# every dataset, write each --emit-json report and exit 0.
code=0
cargo run --release -q -p bench --bin smoke -- \
    --datasets restaurants,citations --scale 0.05 --emit-json "$svc_dir/smoke-piped" \
    | true || code=$?
[ "$code" -eq 0 ] \
    || { echo "FAIL: smoke exited $code when its stdout closed"; exit 1; }
for ds in restaurants citations; do
    [ -f "$svc_dir/smoke-piped/$ds.json" ] \
        || { echo "FAIL: smoke wrote no $ds report when its stdout closed"; exit 1; }
done

echo "==> cleaning_demo with a closed stdout"
# The experiment bins that write no report file print through the same
# writer: a closed pipe must still let the run finish and exit 0.
code=0
cargo run --release -q -p bench --bin cleaning_demo -- \
    --datasets restaurants --scale 0.05 --runs 1 | true || code=$?
[ "$code" -eq 0 ] \
    || { echo "FAIL: cleaning_demo exited $code when its stdout closed"; exit 1; }

echo "==> CI OK"
