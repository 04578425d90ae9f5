#!/usr/bin/env bash
# Run the mvcca CLI pipeline with solver.virtual_clock = true and leave
# every output under OUT, so that two runs (two processes, or two source
# trees) can be compared with `diff -r`.
#
# Usage: .github/virtual_clock_pipeline.sh SRC OUT
#   SRC  the directory that holds the mvcca package (a checkout's src/)
#   OUT  a new or empty directory for the outputs
#
# The pipeline:
#   - synth: three 200 x 40 views plus a 10-column outlier block;
#   - for each penalty kind (none, l1, l21, elastic_l1, elastic_l21,
#     nonneg): solve, metrics and eval-retrieval of those views;
#   - hash: three seeded 150-line corpora into 150 x 4 096 views, each
#     with about 1 400 columns that hold data, more than their rows;
#   - an l21 solve of the hashed views and its eval-retrieval.
# Every config names its files relative to OUT, so the echoed configs
# do not depend on where OUT is.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

mvcca() { PYTHONPATH="$src" python3 -m mvcca "$@"; }

cat > synth.cfg <<'EOF'
synth.rows = 200
synth.features = 40
synth.views = 3
synth.components = 3
synth.density = 5e-2
synth.outliers = 10
synth.seed = 11
EOF
mvcca synth --config synth.cfg --out data

views=data/view_0.mtx,data/view_1.mtx,data/view_2.mtx
for kind in none l1 l21 elastic_l1 elastic_l21 nonneg; do
    cat > "solve_$kind.cfg" <<EOF
solver.k = 3
solver.outer_max = 40
solver.seed = 7
solver.virtual_clock = true
reg.kind = $kind
reg.lambda = 0.05
reg.mu = 0.1
io.data_dir = data
EOF
    mvcca solve --config "solve_$kind.cfg" --out "run_$kind"
    printf 'io.data_dir = data\nio.run_dir = run_%s\n' "$kind" \
        > "metrics_$kind.cfg"
    mvcca metrics --config "metrics_$kind.cfg" --out "report_$kind"
    printf 'io.views = %s\nio.factors = %s\n' "$views" \
        "run_$kind/Q_0.csv,run_$kind/Q_1.csv,run_$kind/Q_2.csv" \
        > "eval_$kind.cfg"
    mvcca eval-retrieval --config "eval_$kind.cfg" --out "eval_$kind"
done

# three "languages": one seeded vocabulary each, and a shared topic per
# line, so that the lines of the three corpora correspond
python3 - <<'EOF'
import random

rng = random.Random(5)
topics = [rng.randrange(30) for _ in range(150)]
for lang in range(3):
    words = [f"w{lang}_{t}" for t in range(3000)]
    with open(f"corpus_{lang}.txt", "w", encoding="utf-8") as f:
        for topic in topics:
            doc = [words[(100 * topic + rng.randrange(100)) % 3000]
                   for _ in range(8)]
            doc += [rng.choice(words) for _ in range(rng.randrange(4, 16))]
            f.write(" ".join(doc) + "\n")
EOF
hashed=
for lang in 0 1 2; do
    printf 'io.text = corpus_%s.txt\nio.name = lang_%s\nretrieval.bits = 12\nretrieval.hash_seed = %s\n' \
        "$lang" "$lang" "$((lang + 3))" > "hash_$lang.cfg"
    mvcca hash --config "hash_$lang.cfg" --out "hashed_$lang"
    hashed=${hashed:+$hashed,}hashed_$lang/lang_$lang.mtx
done
cat > solve_text.cfg <<EOF
solver.k = 5
solver.outer_max = 30
solver.seed = 9
solver.virtual_clock = true
reg.kind = l21
reg.lambda = 0.1
io.views = $hashed
EOF
mvcca solve --config solve_text.cfg --out run_text
printf 'io.views = %s\nio.factors = %s\n' "$hashed" \
    run_text/Q_0.csv,run_text/Q_1.csv,run_text/Q_2.csv > eval_text.cfg
mvcca eval-retrieval --config eval_text.cfg --out eval_text
