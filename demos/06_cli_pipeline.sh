#!/usr/bin/env bash
# End-to-end command-line pipeline on a small simulated benchmark:
# simulate -> select-nu0 -> fit (joint and single-network) -> evaluate -> rank.
# simulate, select-nu0 and fit read key = value config files for their settings;
# every command names its input and output files by flags.
set -euo pipefail

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

cat > sim.conf <<'EOF'
p = 15
levels = 1,2,3,4
n_base_edges = 15
n_appearing = 6
n_disappearing = 6
n_per_group = 300
seed = 21
EOF

echo "== simulate =="
ordnet simulate --config sim.conf --out-dir data
ls data
echo

echo "== select-nu0: extended-BIC line search for the single-network baseline =="
cat > select.conf <<'EOF'
nu0_grid = 0.01,0.02,0.04,0.08
EOF
ordnet select-nu0 --config select.conf --manifest data/manifest.csv --out nu0.json
python3 -c "import json; d = json.load(open('nu0.json')); print('selected:', d['selected'])"
echo

echo "== fit: single-network baseline, spikes from the selection report, 2 worker processes =="
cat > fit_ssl.conf <<'EOF'
method = ssl
threads = 2
EOF
ordnet fit --config fit_ssl.conf --manifest data/manifest.csv \
    --nu0-report nu0.json --out fit_ssl.json
echo

echo "== fit: covariate-coupled joint model at a fixed spike =="
cat > fit.conf <<'EOF'
nu0 = 0.04
EOF
ordnet fit --config fit.conf --manifest data/manifest.csv --out fit_joint.json
echo

echo "== evaluate both fits against the simulation truth =="
ordnet evaluate --fit fit_joint.json --truth data/truth.json --out metrics.csv
ordnet evaluate --fit fit_ssl.json --truth data/truth.json --out metrics.csv --append --replicate 1
cat metrics.csv
echo

echo "== rank covariate-driven edges and nodes from the joint fit =="
ordnet rank --fit fit_joint.json --k 6 --out-prefix rank
head -5 rank_nodes.csv
echo "..."
cat rank_positive_edges.csv
