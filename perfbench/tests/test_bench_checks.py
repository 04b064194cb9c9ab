"""Each correctness check passes on good results and fails on a perturbed eigenvalue."""

from dataclasses import replace

import checks
import workloads

# bie-spectrum, seed 0: the first nine real eigenvalues (re, im, multiplicity)
ELLIPSE_NINE = [
    [0.051185039183341004, -1.3e-16, 1], [0.6035619656600596, 4.6e-16, 1],
    [0.7164608672523052, -4.5e-17, 1], [1.0830492477374547, 1.4e-14, 1],
    [1.11360413386555, -1.3e-15, 1], [1.5243780848928936, 6.6e-15, 1],
    [1.5310461415897645, 5.7e-14, 1], [1.949427941297527, -3.6e-15, 1],
    [1.950725482361389, -1.5e-16, 1],
]


def _coarse(study):
    """The study with a 1e-9 root tolerance: a 10x coarser, faster scan."""
    det = replace(study.cfg.determinant, tol=1e-9)
    return replace(study, cfg=replace(study.cfg, determinant=det))


def _perturbed(values, j, dk):
    out = [list(v) for v in values]
    out[j][0] += dk
    return out


def test_spectrum_check():
    study = workloads.build("bie-spectrum", 0)[0]
    assert checks.check([study], [{"eigenvalues": ELLIPSE_NINE}]) == []
    # k1 against the small-k expansion (tolerance ~3e-3 relative), k5 against
    # the Fourier-Bessel root (1e-5)
    bad = _perturbed(_perturbed(ELLIPSE_NINE, 0, 0.01 * ELLIPSE_NINE[0][0]), 4, 1e-4)
    failures = checks.check([study], [{"eigenvalues": bad}])
    assert [f.split(":")[0] for f in failures] == ["ellipse spectrum k1", "ellipse spectrum k5"]
    failures = checks.check([study], [{"eigenvalues": ELLIPSE_NINE[:8]}])
    assert any("8 real eigenvalues" in f for f in failures)


def test_disk_convergence_check():
    study = _coarse(workloads.build("disk-lambda", 0)[0])
    (res,) = workloads.run([study])
    assert checks.check([study], [res]) == []
    res["limits"][1] += 1e-7
    res["ks"][4][2] -= 1e-7
    failures = checks.check([study], [res])
    labels = {f.split(":")[0] for f in failures}
    # the EOC is taken against the oracle's limits, so only the values fail
    assert labels == {"below (4, 1) limit k2", "below (4, 1) p=5 k3"}


def test_eoc_check():
    limits = [2.0, 3.0, 4.0]
    linear = [[lim + (j + 1) * 0.1 * 2.0 ** -p for j, lim in enumerate(limits)]
              for p in range(1, 11)]
    assert checks.check_eoc("s", linear, limits) == []
    linear[6][1] += 5e-4  # p = 7, k2: the EOC entries at p = 7 and p = 8 break
    failures = checks.check_eoc("s", linear, limits)
    assert [f.split(" =")[0] for f in failures] == ["s p=7 eoc2", "s p=8 eoc2"]
    quadratic = [[lim + 4.0 ** -p for lim in limits] for p in range(1, 11)]
    assert len(checks.check_eoc("s", quadratic, limits)) == 3 * 7


def test_sweep_check():
    study = _coarse(workloads.build("disk-n-sweep", 0)[0])
    (res,) = workloads.run([study])
    assert checks.check([study], [res]) == []
    res["ks"][1][0] += 1e-7
    res["verdicts"][2] = "violated"
    failures = checks.check([study], [res])
    assert any(f.startswith("n regime A n=0.2 k1:") for f in failures)
    assert any(f.startswith("n regime A k3: verdict") for f in failures)
