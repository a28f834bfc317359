#!/usr/bin/env bash
# The README's command-line forms through the installed `covglm` entry
# point, on Hunting- and soya-shaped data from covbench/datagen.py. Every
# command must exit 0; multcomp gets no --model, so the factor types come
# from the fit file. A raw numpy RuntimeWarning is an error, as in the
# tests. Then a fit file whose inverse Godambe matrix holds a NaN: each
# anova type must fail cleanly, with exit status 1 and one stderr line.
# Run from the repository root: bash scripts/cli_smoke.sh
set -euo pipefail
export PYTHONWARNINGS=error::RuntimeWarning
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
python3 - "$dir" <<'PY'
import csv, sys
sys.path.insert(0, "covbench")
import datagen
for name, data in (("hunting", datagen.hunting_data(0)), ("soya", datagen.soya_data(0))):
    with open(f"{sys.argv[1]}/{name}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.names)
        writer.writerows(zip(*(data.column(c) for c in data.names)))
PY
smoke() {  # shape effects anova-disp-groups names manova-disp-groups names
  local csv="$dir/$1.csv" fit="$dir/$1.fit"
  covglm fit --data "$csv" --model "fixtures/$1_model.json" --save "$fit"
  covglm summary --fit "$fit"
  for type in 1 2 3; do
    covglm anova --fit "$fit" --type "$type"
    covglm manova --fit "$fit" --type "$type"
  done
  covglm anova-disp --fit "$fit" --groups "$3" --names "$4"
  covglm manova-disp --fit "$fit" --groups "$5" --names "$6"
  covglm multcomp --fit "$fit" --data "$csv" --effects "$2"
  covglm multcomp --fit "$fit" --data "$csv" --effects "$2" --multivariate
  covglm lht --fit "$fit" --hypothesis 'beta11 = 0' --hypothesis 'beta21 = 0'
}
smoke hunting METHOD,SEX '0,1;0,1' 'tau10,tau11;tau20,tau21' '0,1' 'tau0,tau1'
smoke soya water,pot '0;0;0' 'tau10;tau20;tau30' '0' 'tau0'
# A fit file of format version 1, which also stored the design matrices.
covglm summary --fit fixtures/hunting_tiny_v1.fit
# The soya fit with a NaN on the diagonal of joint_inverse.
python3 - "$dir" <<'PY'
import dataclasses, sys
import numpy as np
from covglm import load_fit, save_fit
model = load_fit(f"{sys.argv[1]}/soya.fit")
joint_inverse = model.joint_inverse.copy()
joint_inverse[1, 1] = np.nan
save_fit(dataclasses.replace(model, joint_inverse=joint_inverse), f"{sys.argv[1]}/nan.fit")
PY
for type in 1 2 3; do
  status=0
  covglm anova --fit "$dir/nan.fit" --type "$type" >/dev/null 2>"$dir/stderr" || status=$?
  cat "$dir/stderr"
  test "$status" -eq 1
  test "$(wc -l <"$dir/stderr")" -eq 1
  if grep -q Traceback "$dir/stderr"; then exit 1; fi
done
