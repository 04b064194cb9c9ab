"""Experiment harness: EOC arithmetic, study tables, emission, config, CLI."""

import json
import math
import shlex
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tevsolve import cli, studies
from tevsolve.beyn import BeynConfig, ContourSpec, NepEigenvalue, beyn_solve
from tevsolve.cli import _build_parser, main
from tevsolve.errors import CapacityExceeded, ConfigError, TrackingLost
from tevsolve.materials import MaterialParams
from tevsolve.studies import (
    CONFIG_KEYS,
    BieSettings,
    DeterminantSettings,
    StudyConfig,
    compute_eoc,
    config_from_dict,
    converge_table,
    display,
    grid_table,
    read_table_csv,
    run_contour_grid,
    run_convergence_study,
    run_monotonicity_sweep,
    run_spectrum,
    spectrum_table,
    sweep_table,
    write_flag,
    write_table,
    _bie_eigenvalues,
    _merge_overlaps,
)
from tevsolve.testing import MatrixPolynomial

EX34 = MaterialParams(4.0, -0.01, 2.0)


def disk_cfg(**kw):
    det = kw.pop("determinant", DeterminantSettings(m_max=5, k_range=(0.5, 4.0)))
    return StudyConfig(material=kw.pop("material", EX34), method="determinant",
                       determinant=det, **kw)


class TestComputeEoc:
    def test_exact_halving(self):
        assert compute_eoc([0.4, 0.2, 0.1]) == pytest.approx([1.0, 1.0])

    def test_no_improvement(self):
        assert compute_eoc([0.1, 0.1]) == pytest.approx([0.0])

    def test_nonpositive_gives_na(self):
        assert compute_eoc([0.1, 0.0, 0.2]) == [None, None]

    def test_disk_first_column_entry(self):
        # EOC of |k1(lambda_p) - 2.7741| across p = 1, 2 for the eta = 1, n = 4
        # disk: the published tables measure errors against the 4-decimal limit
        from tevsolve.disk import real_roots

        k = []
        for lam in (0.5, 0.75):
            eigs = real_roots(MaterialParams(4.0, 1.0, lam), m_max=4, k_range=(2.5, 3.5))
            k.append(eigs[0].k.real)
        eoc = compute_eoc([abs(v - 2.7741) for v in k])[0]
        assert eoc == pytest.approx(2.0346, abs=0.02)


class TestConvergenceStudy:
    def test_disk_below_first_row(self):
        cfg = disk_cfg(material=MaterialParams(4.0, 1.0, 1.0),
                       determinant=DeterminantSettings(m_max=5, k_range=(2.0, 4.0)))
        study = run_convergence_study(cfg, side="below", p_max=2)
        assert study.limits == pytest.approx([2.7741, 3.2908, 3.3122], abs=5e-5)
        row1 = study.rows[0]
        assert (row1.p, row1.lam) == (1, 0.5)
        assert row1.ks == pytest.approx([3.0394, 3.0561, 3.2494], abs=5e-5)
        assert row1.eocs == (None, None, None)
        # the k1/k2 branches cross between p = 1 and 2; the rows stay
        # rank-sorted and the crossing is noted
        assert "crossing" in study.rows[1].note

    def test_disk_above_last_row(self):
        cfg = disk_cfg(material=MaterialParams(1.0 / 3.0, -1.0, 1.0),
                       determinant=DeterminantSettings(m_max=5, k_range=(6.0, 8.5)))
        study = run_convergence_study(cfg, side="above", p_max=10)
        last = study.rows[-1]
        assert last.ks[0] == pytest.approx(6.9886, abs=5e-5)

    def test_tracking_lost_when_window_too_small(self):
        cfg = disk_cfg(determinant=DeterminantSettings(m_max=2, k_range=(0.6, 0.8)))
        with pytest.raises(TrackingLost, match="lambda = 1 holds 0 eigenvalues; 3 are needed"):
            run_convergence_study(cfg, side="below", p_max=2)

    def test_p_max_below_one_rejected(self):
        cfg = disk_cfg(determinant=DeterminantSettings(m_max=2, k_range=(2.0, 4.0)))
        for p_max in (0, -2):
            with pytest.raises(ConfigError, match="p_max must be >= 1"):
                run_convergence_study(cfg, side="below", p_max=p_max)

    def test_p_max_past_double_precision_rejected(self, capsys):
        # 1 + 2^-53 and 1 - 2^-54 round to 1.0: those rows would be the limit problem
        cfg = disk_cfg(determinant=DeterminantSettings(m_max=2, k_range=(2.0, 4.0)))
        assert replace(cfg, converge_side="above", converge_p_max=52).converge_p_max == 52
        assert replace(cfg, converge_side="below", converge_p_max=53).converge_p_max == 53
        for side, p_max in (("above", 53), ("below", 54), ("below", 10**400)):
            with pytest.raises(ConfigError, match="lambda_p != 1.0"):
                run_convergence_study(cfg, side=side, p_max=p_max)
        assert main(["converge", "--method", "determinant", "--n", "4", "--eta", "1",
                     "--lambda", "1", "--side", "above", "--pmax", "54", "--k-range", "2,4",
                     "--m-max", "3"]) == 2
        assert "p_max must be >= 1 with lambda_p != 1.0, got 54" in capsys.readouterr().err


class TestMonotonicitySweep:
    def test_disk_regime_a_n_sweep(self):
        cfg = disk_cfg(
            material=MaterialParams(0.25, -3.0, 2.0),
            determinant=DeterminantSettings(m_max=8, k_range=(3.0, 8.0)),
            sweep_field="n",
            sweep_values=(1 / 6, 1 / 5, 1 / 4, 1 / 3),
        )
        result = run_monotonicity_sweep(cfg)
        k1 = [r.ks[0] for r in result.rows]
        k2 = [r.ks[1] for r in result.rows]
        assert k1 == pytest.approx([4.8387, 4.9935, 5.6504, 6.5592], abs=5e-5)
        assert k2 == pytest.approx([4.8893, 5.6474, 6.0112, 7.3299], abs=5e-5)
        assert result.verdicts[0] == "ascending"
        assert result.verdicts[1] == "ascending"

    def test_outside_regime_warns(self, caplog):
        cfg = disk_cfg(sweep_field="eta", sweep_values=(-0.01, -0.02),
                       determinant=DeterminantSettings(m_max=3, k_range=(0.5, 2.5)))
        with caplog.at_level("WARNING"):
            run_monotonicity_sweep(cfg)
        assert any("outside regimes" in r.message for r in caplog.records)

    def test_incomplete_row(self):
        cfg = disk_cfg(
            material=MaterialParams(0.25, -3.0, 2.0),
            determinant=DeterminantSettings(m_max=8, k_range=(4.8, 5.0)),
            sweep_field="n", sweep_values=(1 / 6, 1 / 5),
        )
        result = run_monotonicity_sweep(cfg)
        assert not result.rows[1].complete

    def test_monotone_value_validation(self):
        with pytest.raises(ConfigError):
            disk_cfg(sweep_field="n", sweep_values=(0.3, 0.1, 0.2))


class TestSharedScan:
    """A study's determinant points scan each mode once, together."""

    @staticmethod
    def count_scans(monkeypatch):
        """The (mode, k) pairs of the grid evaluations; each covers all points at once."""
        from tevsolve import disk

        scans = []
        original = disk.disk_determinant

        def counted(m, k, p):
            if np.ndim(k):
                scans.extend((int(o), x) for o in np.atleast_1d(m) for x in np.ravel(k).tolist())
            return original(m, k, p)

        monkeypatch.setattr(disk, "disk_determinant", counted)
        return scans

    @staticmethod
    def assert_each_scanned_once(scans, modes):
        grid = {x for _, x in scans}
        assert len(scans) == len(set(scans)) == len(modes) * len(grid)
        assert set(scans) == {(m, x) for m in modes for x in grid}

    def test_convergence_study_scans_each_mode_once(self, monkeypatch):
        scans = self.count_scans(monkeypatch)
        cfg = disk_cfg(material=MaterialParams(4.0, 1.0, 1.0),
                       determinant=DeterminantSettings(m_max=3, k_range=(2.0, 4.0)))
        run_convergence_study(cfg, side="below", p_max=3)
        self.assert_each_scanned_once(scans, [0, 1, 2, 3])

    def test_eta_sweep_scans_each_mode_once(self, monkeypatch):
        scans = self.count_scans(monkeypatch)
        cfg = disk_cfg(material=MaterialParams(3.0, 1.0, 0.5),
                       determinant=DeterminantSettings(m_max=3, k_range=(1.0, 5.0)),
                       sweep_field="eta", sweep_values=(1.0, 2.0, 3.0), jobs=2)
        run_monotonicity_sweep(cfg)
        self.assert_each_scanned_once(scans, [0, 1, 2, 3])

    def test_n_sweep_scans_each_point(self, monkeypatch):
        scans = self.count_scans(monkeypatch)
        cfg = disk_cfg(material=MaterialParams(3.0, 1.0, 0.5),
                       determinant=DeterminantSettings(m_max=1, k_range=(1.0, 5.0)),
                       sweep_field="n", sweep_values=(3.0, 4.0, 5.0), jobs=2)
        run_monotonicity_sweep(cfg)
        self.assert_each_scanned_once(scans, [0, 1])

    def test_tracking_lost_at_first_short_window(self):
        # the limit holds 3 eigenvalues in (2.76, 3.33); p = 1, 2 and 3 hold
        # 1, 1 and 2: the error names p = 1, not a later short window
        cfg = disk_cfg(material=MaterialParams(4.0, 1.0, 1.0),
                       determinant=DeterminantSettings(m_max=3, k_range=(2.76, 3.33)))
        with pytest.raises(TrackingLost, match="lambda = 1.5 holds 1 eigenvalues"):
            run_convergence_study(cfg, side="above", p_max=3)


def method_pair(material, contour, **kw):
    """The same study on the determinant path over the contour's real
    diameter, and on the BIE path (circle, N = 64) inside the contour."""
    lo, hi = contour.center.real - contour.radius, contour.center.real + contour.radius
    det = StudyConfig(material=material, method="determinant",
                      determinant=DeterminantSettings(m_max=10, k_range=(lo, hi)), **kw)
    return det, replace(det, method="bie", bie=BieSettings(nodes=64, contours=(contour,)))


class TestCrossMethod:
    # the BIE accuracy the circle tests hold Beyn to at N = 64
    TOL = 1e-3

    def test_lambda_study_agrees(self):
        det, bie = method_pair(MaterialParams(4.0, 1.0, 1.0), ContourSpec(3.05, 0.55, 24))
        want, got = (run_convergence_study(c, side="below", p_max=2) for c in (det, bie))
        assert got.limits == pytest.approx(want.limits, abs=self.TOL)
        assert len(got.rows) == len(want.rows) == 2
        for g, w in zip(got.rows, want.rows):
            assert (g.p, g.lam, g.note) == (w.p, w.lam, w.note)
            assert g.ks == pytest.approx(w.ks, abs=self.TOL)
        assert got.rows[0].eocs == want.rows[0].eocs == (None, None, None)
        assert got.rows[1].eocs == pytest.approx(want.rows[1].eocs, abs=1e-2)

    def test_n_sweep_agrees(self):
        det, bie = method_pair(MaterialParams(4.0, 1.0, 0.5), ContourSpec(2.75, 0.65, 24),
                               sweep_field="n", sweep_values=(4.0, 4.5, 5.0))
        want, got = run_monotonicity_sweep(det), run_monotonicity_sweep(bie)
        assert got.verdicts == want.verdicts == ("descending",) * 3
        assert [r.param for r in got.rows] == [r.param for r in want.rows]
        for g, w in zip(got.rows, want.rows):
            assert g.complete and w.complete
            assert g.ks == pytest.approx(w.ks, abs=self.TOL)


class TestSpectrum:
    def test_determinant_with_complex_region(self):
        cfg = disk_cfg(determinant=DeterminantSettings(
            m_max=0, k_range=(0.01, 10.0), complex_region=(0.0, 10.0, -1.0, 1.0)))
        rows = run_spectrum(cfg)
        assert len(rows) == 10
        assert rows[1].re_k == pytest.approx(2.203160, abs=5e-6)
        assert rows[1].im_k == pytest.approx(-0.290468, abs=5e-6)
        assert {r.source for r in rows} == {"determinant"}

    def test_complex_region_rows_do_not_depend_on_jobs(self):
        det = DeterminantSettings(m_max=2, k_range=(0.01, 10.0),
                                  complex_region=(0.0, 10.0, -1.0, 1.0))
        serial = run_spectrum(disk_cfg(determinant=det, jobs=1))
        assert run_spectrum(disk_cfg(determinant=det, jobs=2)) == serial
        assert {r.mode_m for r in serial} == {0, 1, 2}

    def test_disk_first_nine_with_multiplicity(self):
        cfg = disk_cfg(determinant=DeterminantSettings(m_max=8, k_range=(0.01, 2.5)))
        rows = run_spectrum(cfg)
        flat = []
        for r in rows:
            flat.extend([round(r.re_k, 4)] * r.multiplicity)
        assert flat[:9] == [0.0534, 0.7208, 0.7208, 1.2131, 1.2131, 1.6864, 1.6864,
                            2.1516, 2.1516]

    def test_bie_path_records_contour(self):
        cfg = StudyConfig(
            shape="circle:r=1", material=EX34, method="bie",
            bie=BieSettings(nodes=64, contours=(ContourSpec(3.5, 0.5, 24),),
                            beyn=BeynConfig()),
        )
        rows = run_spectrum(cfg)
        assert any(abs(r.re_k - 3.4567) < 2e-3 for r in rows)
        assert all(r.source.startswith("beyn:mu=") and r.mode_m == -1 for r in rows)


def double_root_poly() -> MatrixPolynomial:
    """M(z) = P diag((z-2)(z-4.5), (z-2)(z-4.4), (z+1)(z-5)) P^{-1}: a
    semisimple double eigenvalue at 2 (Beyn finds it as two copies, which
    merge into one entry of multiplicity 2) and simple ones at 4.5, 4.4, -1
    and 5."""
    P = np.random.Generator(np.random.Philox(7)).standard_normal((3, 3))
    r1, r2 = np.array([2.0, 2.0, -1.0]), np.array([4.5, 4.4, 5.0])
    P_inv = np.linalg.inv(P)
    return MatrixPolynomial(P @ np.diag(-(r1 + r2)) @ P_inv, P @ np.diag(r1 * r2) @ P_inv)


class TestCrossContourMerge:
    def test_overlap_eigenvalue_reported_once_from_deeper_contour(self):
        # k = 2 lies in both contours: at depth 0.42 in the wide one and near
        # the edge (depth 0.67, 12 nodes) of the narrow one, so the wide
        # contour's copy is kept
        wide, narrow = ContourSpec(1.5, 1.2, 24), ContourSpec(2.6, 0.9, 12)
        beyn = BeynConfig(probe_columns=4)
        poly = double_root_poly()
        eigs = _merge_overlaps([e for c in (narrow, wide) for e in beyn_solve(poly, c, beyn)],
                               beyn.merge_radius)
        assert len(eigs) == 1
        assert eigs[0].contour == wide
        assert eigs[0].multiplicity == 2
        assert eigs[0].k == pytest.approx(2.0, abs=1e-8)


class TestContourMajor:
    """BIE studies run contour by contour, with one family per contour."""

    FIRST, SECOND = ContourSpec(2.5, 0.5, 24), ContourSpec(3.5, 0.5, 24)

    @staticmethod
    def cfg(*contours, nodes=32) -> StudyConfig:
        return StudyConfig(shape="ellipse:a=1,b=1.2", material=MaterialParams(4.0, 1.0, 1.0),
                           method="bie", bie=BieSettings(nodes=nodes, contours=contours), jobs=1)

    def test_points_share_each_node_ratio(self, trace_ratios):
        # three lambda points on one contour: the 48 node wavenumbers (z and
        # 2z) are built once for the study, and each point's eigenvalues are
        # bitwise those of the point solved alone
        cfg = self.cfg(self.FIRST)
        points = [cfg.material.replace(lam=lam) for lam in (1.0, 0.5, 0.75)]
        together = list(_bie_eigenvalues(cfg, points))
        node_ks = [k for z in self.FIRST.nodes() for k in (2.0 * z, z)]
        assert [trace_ratios.count(k) for k in node_ks] == [1] * 48
        assert len(trace_ratios) == len(set(trace_ratios))
        assert together == [next(_bie_eigenvalues(cfg, [p])) for p in points]
        assert all(together)

    def test_each_contour_family_is_freed_before_the_next(self, monkeypatch):
        # a memo that outlived its contour would still be alive when the
        # second contour's solves start; an error kept for a later point
        # (raised here in a frame that holds the family) must not keep it
        memos: list[weakref.ref] = []
        alive = []

        def solve(nep, contour, cfg, jobs):
            node = complex(contour.nodes()[0])
            nep(node)
            ratio = nep._ratios[node]  # the memo's, as long as the memo lives
            if not any(m() is ratio for m in memos):
                memos.append(weakref.ref(ratio))
            alive.append([m() is not None for m in memos])
            if contour == self.FIRST and nep.params.lam == 0.5:
                raise CapacityExceeded("saturated")
            return []

        monkeypatch.setattr(studies, "beyn_solve", solve)
        cfg = self.cfg(self.FIRST, self.SECOND)
        errors = []
        points = [cfg.material, cfg.material.replace(lam=0.5)]
        assert list(_bie_eigenvalues(cfg, points, errors)) == [[], []]
        assert alive == [[True], [True], [False, True], [False, True]]
        assert [(c, type(e)) for c, e in errors] == [(self.FIRST, CapacityExceeded)]
        assert memos[1]() is None

    @pytest.mark.parametrize("failing, raised", [
        ((FIRST, 0.75), "TrackingLost: the window at lambda = 0.5 holds 1"),
        ((SECOND, 0.5), "CapacityExceeded: saturated"),
    ])
    def test_errors_keep_point_order(self, monkeypatch, failing, raised):
        # points lambda = 1, 0.5, 0.75: the second holds one value.  Every point
        # is solved on the first contour, then on the second, but the study
        # fails where a point-by-point study would: at the first point that
        # is short of values or whose solve raised
        calls = []

        def solve(nep, contour, cfg, jobs):
            lam = nep.params.lam
            calls.append((contour, lam))
            if (contour, lam) == failing:
                raise CapacityExceeded("saturated")
            values = (2.2,) if lam == 0.5 else (2.1, 2.4, 2.7)
            return [NepEigenvalue(k, 0.0, 1, contour) for k in values if contour.contains(k)]

        monkeypatch.setattr(studies, "beyn_solve", solve)
        with pytest.raises((TrackingLost, CapacityExceeded)) as info:
            run_convergence_study(self.cfg(self.FIRST, self.SECOND), side="below", p_max=2)
        assert f"{info.type.__name__}: {info.value}".startswith(raised)
        assert calls == [(c, lam) for c in (self.FIRST, self.SECOND) for lam in (1.0, 0.5, 0.75)]


class TestInContourMerge:
    def test_each_copy_of_a_double_is_polished_before_the_merge(self):
        # near the edge of the narrow 12-node contour the two reduced copies
        # of k = 2 are ~3e-4 off; each is polished, then the two merge
        eigs = beyn_solve(double_root_poly(), ContourSpec(2.6, 0.9, 12),
                          BeynConfig(probe_columns=4))
        near = [e for e in eigs if abs(e.k - 2.0) < 1e-3]
        assert len(near) == 1
        assert near[0].multiplicity == 2
        assert abs(near[0].k - 2.0) <= 1e-7


class TestEmission:
    def test_spectrum_csv_round_trip(self):
        cfg = disk_cfg(determinant=DeterminantSettings(m_max=3, k_range=(0.01, 2.5)))
        rows = run_spectrum(cfg)
        text = write_table(spectrum_table(rows), out=None, fmt="csv")
        parsed = read_table_csv(text)
        assert parsed[0] == ["re_k", "im_k", "multiplicity", "residual", "mode_m", "source"]
        for rec, row in zip(parsed[1:], rows):
            assert float(rec[0]) == row.re_k
            assert float(rec[1]) == row.im_k
            assert int(rec[2]) == row.multiplicity
            assert float(rec[3]) == row.residual
            assert int(rec[4]) == row.mode_m

    def test_converge_header_and_na(self):
        cfg = disk_cfg(material=MaterialParams(4.0, 1.0, 1.0),
                       determinant=DeterminantSettings(m_max=4, k_range=(2.0, 4.0)))
        study = run_convergence_study(cfg, side="below", p_max=2)
        table = converge_table(study)
        assert table[0] == ["p", "lambda", "k1", "eoc1", "k2", "eoc2", "k3", "eoc3"]
        assert table[1][3] == "N/A"
        assert float(table[1][2]) == study.rows[0].ks[0]

    def test_sweep_header(self):
        cfg = disk_cfg(
            material=MaterialParams(0.25, -3.0, 2.0),
            determinant=DeterminantSettings(m_max=6, k_range=(3.0, 7.0)),
            sweep_field="n", sweep_values=(1 / 6, 1 / 5),
        )
        table = sweep_table(run_monotonicity_sweep(cfg))
        assert table[0] == ["param", "k1", "k2", "k3", "verdict1", "verdict2", "verdict3"]

    def test_grid_table_and_json(self, tmp_path):
        cfg = disk_cfg(grid_region=(0.0, 1.0, -0.5, 0.5), grid_shape=(2, 2), grid_m=0)
        table = grid_table(run_contour_grid(cfg))
        assert table[0] == ["re_k", "im_k", "abs_dm"]
        assert len(table) == 5
        # |d0(0)| = |eta| at the origin corner
        corner = [row for row in table[1:] if float(row[0]) == 0.0 and float(row[1]) == -0.5]
        assert corner
        out = tmp_path / "g.json"
        write_table(table, str(out), "json")
        data = json.loads(out.read_text())
        assert data[0]["re_k"] == "0"

    def test_display_rounds_to_four_decimals(self):
        table = [["k1"], ["3.45670412345"]]
        assert "3.4567" in display(table)


class TestConfig:
    def test_full_document(self):
        cfg = config_from_dict(
            {
                "shape": "ellipse:a=1,b=1.2",
                "material": {"n": 4, "eta": -0.01, "lambda": 2},
                "method": "bie",
                "bie": {
                    "nodes": 240,
                    "contours": [{"mu": 0.5}, {"mu": "2.2+0.6i", "radius": 0.5,
                                               "quad_points": 48}],
                    "beyn": {"probe_columns": 24, "seed": 3},
                },
                "out": "x.csv",
                "format": "csv",
                "jobs": 2,
            }
        )
        assert cfg.bie.contours[1].center == 2.2 + 0.6j
        assert cfg.bie.contours[1].quad_points == 48
        assert cfg.bie.beyn.probe_columns == 24
        assert cfg.material.lam == 2.0

    def test_unknown_keys_rejected(self):
        for doc in ({"shaep": "kite"}, {"bie": {"node": 64}, "determinant": {"mmax": 1}},
                    {"bie": {"beyn": {"seeed": 1}}}, {"grid": {"nz": 3}}):
            with pytest.raises(ConfigError, match="unknown config keys"):
                config_from_dict(doc)

    def test_determinant_requires_disk(self):
        with pytest.raises(ConfigError):
            StudyConfig(shape="kite", method="determinant")

    def test_material_requires_all_fields(self):
        for doc in ({"material": {"n": 4, "eta": 1}}, {"material": [4, 1, 1]}):
            with pytest.raises(ConfigError):
                config_from_dict(doc)

    def test_bad_values_rejected(self):
        for doc in ({"determinant": {"m_max": "abc"}}, {"grid": {"region": [0, 1]}},
                    {"determinant": {"k_range": 3}}, {"bie": {"contours": [{"radius": 1}]}},
                    {"bie": {"contours": {"mu": 1}}}, {"shape": 1}, [{"shape": "kite"}],
                    {"bie": {"beyn": {"seed": -1}}}, {"converge": {"p_max": 0}},
                    {"converge": {"p_max": -2}}, {"jobs": -4},
                    # fractional integers and booleans are rejected, not truncated
                    {"bie": {"nodes": 240.5}}, {"determinant": {"m_max": 6.9}},
                    {"converge": {"p_max": 3.7}}, {"grid": {"nx": 10.2}},
                    {"determinant": {"complex_grid": [201.5, 81]}}, {"jobs": True},
                    {"material": {"n": True, "eta": 1, "lambda": 1}},
                    {"bie": {"contours": [{"mu": True}]}}):
            with pytest.raises(ConfigError):
                config_from_dict(doc)
        cfg = config_from_dict({"bie": {"nodes": 240.0}})
        assert cfg.bie.nodes == 240 and type(cfg.bie.nodes) is int

    def test_non_finite_numbers_rejected(self):
        # one finiteness rule for every numeric key; the message names the key
        for path, doc in (
                ("determinant.tol", {"determinant": {"tol": math.nan}}),
                ("determinant.k_range", {"determinant": {"k_range": [0.1, math.inf]}}),
                ("material.eta", {"material": {"n": 4, "eta": -math.inf, "lambda": 2}}),
                ("bie.contours[].mu", {"bie": {"contours": [{"mu": "nan+1i"}]}}),
                ("bie.contours[].mu", {"bie": {"contours": [{"mu": [1, -math.inf]}]}}),
                ("bie.contours[].radius", {"bie": {"contours": [{"mu": 1, "radius": math.nan}]}}),
                ("bie.beyn.residual_tol", {"bie": {"beyn": {"residual_tol": math.inf}}}),
                ("sweep.values", {"sweep": {"field": "n", "values": [1, math.nan]}})):
            with pytest.raises(ConfigError) as exc:
                config_from_dict(doc)
            assert str(exc.value).startswith(f"{path}: "), (path, str(exc.value))

    def test_mu_strings(self):
        # only a trailing i is the imaginary unit: "inf" meets the finiteness rule
        for text, mu in (("2.2+0.6i", 2.2 + 0.6j), ("-1.5i", -1.5j), ("2", 2)):
            cfg = config_from_dict({"bie": {"contours": [{"mu": text}]}})
            assert cfg.bie.contours[0].center == mu
        for text in ("inf", "1+infi"):
            with pytest.raises(ConfigError, match="mu: cannot parse .*: expected a finite number"):
                config_from_dict({"bie": {"contours": [{"mu": text}]}})

    def test_removed_keys_rejected(self):
        for doc in ({"determinant": {"complex_grid": [201, 81]}},
                    {"bie": {"beyn": {"rank_tol": 1e-4}}}):
            with pytest.raises(ConfigError, match="unknown"):
                config_from_dict(doc)

    def test_default_jobs_follow_cpu_affinity(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert StudyConfig().effective_jobs == 2
        assert StudyConfig(jobs=5).effective_jobs == 5
        monkeypatch.delattr(os, "sched_getaffinity")
        assert StudyConfig().effective_jobs == 64

    def test_missing_sweep_field_named(self):
        with pytest.raises(ConfigError, match="missing key sweep.field"):
            config_from_dict({"sweep": {"values": [1, 2]}})

    def test_aliases_and_defaults(self):
        cfg = config_from_dict({
            "material": {"n": 4, "eta": 1, "lam": 0.5},
            "bie": {"contours": [{"center": [2.2, 0.6]}]},
            "grid": {"nx": 30},
        })
        assert cfg.material.lam == 0.5
        assert cfg.bie.contours == (ContourSpec(2.2 + 0.6j, 0.5, 24),)
        assert cfg.grid_shape == (30, 30)
        assert config_from_dict({"grid": {"nx": 30, "ny": 20}}).grid_shape == (30, 20)


def load_with_flags(doc, *argv):
    """The StudyConfig the command line builds from doc and the flags argv."""
    args = vars(_build_parser().parse_args(argv))
    doc = json.loads(json.dumps(doc))
    for key in CONFIG_KEYS:
        if args.get(key.path) is not None:
            write_flag(doc, key, args[key.path])
    return config_from_dict(doc)


class TestFlags:
    BIE = {"method": "bie", "shape": "kite", "bie": {"contours": [{"mu": 1.0, "radius": 0.3,
                                                                    "quad_points": 32}]}}

    def test_flag_scopes(self):
        common = {"--shape", "--n", "--eta", "--lambda", "--method", "--nodes", "--mu",
                  "--radius", "--quad-points", "--m-max", "--k-range", "--out", "--format",
                  "--jobs"}
        own = {"spectrum": {"--complex-region"}, "grid": {"--region", "--nx", "--ny", "--m"},
               "converge": {"--side", "--pmax"}, "sweep": {"--sweep-field", "--sweep-values"}}
        for command, flags in own.items():
            assert {k.flag for k in CONFIG_KEYS if k.flag and command in k.commands} == (
                common | flags)

    def test_readme_table_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {line.split("`")[1]: line for line in readme.splitlines() if line.startswith("| `")}
        sections = {k.section.removesuffix("[]") for k in CONFIG_KEYS}
        for key in CONFIG_KEYS:
            if key.path not in sections:
                flag = key.flag and f"| `{key.flag}` |"
                assert (flag or "| | |") in rows[key.path], key.path

    def test_readme_examples_parse(self):
        # every command of README's Examples block builds its configuration
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Examples", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("tevsolve ")]
        assert len(commands) == 5
        for argv in commands:
            assert isinstance(load_with_flags({}, *argv), StudyConfig), argv

    def test_mu_takes_radius_and_quad_points(self):
        cfg = load_with_flags(self.BIE, "spectrum", "--mu", "0.5,2+1i", "--quad-points", "40")
        assert cfg.bie.contours == (ContourSpec(0.5, 0.5, 40), ContourSpec(2 + 1j, 0.5, 40))
        cfg = load_with_flags({}, "spectrum", "--mu", "1.5", "--radius", "0.7")
        assert cfg.bie.contours == (ContourSpec(1.5, 0.7, 24),)

    def test_radius_without_mu_rewrites_contours(self):
        cfg = load_with_flags(self.BIE, "spectrum", "--radius", "0.2")
        assert cfg.bie.contours == (ContourSpec(1.0, 0.2, 32),)
        assert load_with_flags({}, "spectrum", "--radius", "0.2").bie.contours == ()

    def test_material_flag_fills_other_fields(self):
        assert load_with_flags({}, "spectrum", "--n", "5").material == MaterialParams(5, -0.01, 2)
        doc = {"material": {"n": 2, "eta": 0.5, "lam": 3}}
        assert load_with_flags(doc, "spectrum", "--lambda", "7").material == MaterialParams(2, 0.5, 7)

    def test_nx_without_ny_is_square(self):
        doc = {"grid": {"nx": 10, "ny": 20}}
        assert load_with_flags(doc, "grid", "--nx", "30").grid_shape == (30, 30)
        assert load_with_flags(doc, "grid", "--nx", "30", "--ny", "5").grid_shape == (30, 5)
        assert load_with_flags(doc, "grid").grid_shape == (10, 20)

    def test_flags_scoped_to_subcommands(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["spectrum", "--nx", "3"])
        assert load_with_flags({}, "converge", "--pmax", "4").converge_p_max == 4


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tevsolve.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_spectrum_writes_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        proc = self.run_cli(
            "spectrum", "--method", "determinant", "--n", "4", "--eta", "-0.01",
            "--lambda", "2", "--m-max", "0", "--k-range", "0.01,10",
            "--out", str(out), "--format", "csv",
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_table_csv(out.read_text())
        assert rows[0][0] == "re_k"
        assert float(rows[1][0]) == pytest.approx(0.053410, abs=1e-5)

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "shape": "circle:r=1",
            "material": {"n": 4, "eta": -0.01, "lambda": 2},
            "method": "determinant",
            "determinant": {"m_max": 0, "k_range": [0.01, 10]},
        }))
        out = tmp_path / "o.csv"
        proc = self.run_cli("spectrum", "--config", str(cfg), "--k-range", "3,7",
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = read_table_csv(out.read_text())
        assert len(rows) == 1 + 2  # 3.4567 and 6.6065 only

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"method": "magic"}')
        proc = self.run_cli("spectrum", "--config", str(bad))
        assert proc.returncode == 2
        for doc in ({"determinant": {"m_max": "abc"}}, {"material": [4, 1, 1]},
                    {"grid": {"region": [0, 1]}}, {"determinant": {"m_max": 6.9}},
                    {"method": "bie", "shape": "kite", "bie": {"nodes": 32, "contours": [{"mu": 2}],
                                                               "beyn": {"seed": -1}}}):
            bad.write_text(json.dumps(doc))
            proc = self.run_cli("spectrum", "--config", str(bad))
            assert proc.returncode == 2, (doc, proc.stderr)
        proc = self.run_cli("spectrum", "--k-range", "3")
        assert proc.returncode == 2, proc.stderr
        converge = ("converge", "--n", "4", "--eta", "1", "--lambda", "1", "--k-range", "2,4",
                    "--m-max", "2")
        for flags in (("--pmax", "0"), ("--pmax", "-2"), ("--jobs", "-4")):
            proc = self.run_cli(*converge, *flags)
            assert proc.returncode == 2, (flags, proc.stderr)

    def test_m_max_above_bessel_cap_exit_code(self):
        proc = self.run_cli(
            "spectrum", "--n", "4", "--eta", "1", "--lam", "0.5", "--m-max", "170",
            "--k-range", "1,10",
        )
        assert proc.returncode == 2, proc.stderr
        assert "m_max must be in 0..169" in proc.stderr

    def test_complex_search_to_mode_60_exit_code(self):
        proc = self.run_cli("spectrum", "--n", "4", "--eta", "-0.01", "--lambda", "2",
                            "--m-max", "60", "--k-range", "1,2", "--complex-region", "0,10,-1,1")
        assert proc.returncode == 0, proc.stderr

    def test_grid_mode_outside_bessel_orders_exit_code(self, capsys):
        grid = ["grid", "--n", "4", "--eta", "-0.01", "--lambda", "2", "--region", "1,2,-0.1,0.1",
                "--nx", "3", "--ny", "2", "--quiet"]
        for m in ("-1", "170"):
            assert main([*grid, "--m", m]) == 2
            assert f"grid m must be in 0..169, got {m}" in capsys.readouterr().err
        assert main([*grid, "--m", "169"]) == 0

    # a small determinant run: the one real root 3.4567 of mode 0 in [3, 4]
    DISK = ("--m-max", "0", "--k-range", "3,4", "-q")
    # each bad input: its argv and the text its message must hold ({tmp} is the
    # test's scratch directory); all but out-unwritable fail before any solve
    BAD_INPUTS = {
        "disk-circle-r2": (("spectrum", "--shape", "circle:r=2", *DISK), "'circle:r=2'"),
        "disk-circle-r-abc": (("spectrum", "--shape", "circle:r=abc", *DISK), "'r=abc'"),
        "trig-scalar-coefficient": (("spectrum", "--method", "bie", "--shape", "trig:xc=1",
                                     "--mu", "2"), "xc"),
        "bie-circle-r-nan": (("spectrum", "--method", "bie", "--shape", "circle:r=nan",
                              "--mu", "2"), "radius r must be finite and positive, got nan"),
        "grid-region-nan": (("grid", "--region", "0,1,-1,nan", "--nx", "3", "-q"),
                            "grid.region"),
        "grid-region-reversed-re": (("grid", "--region", "1,0,-1,1", "--nx", "3", "-q"),
                                    "grid region (1.0, 0.0, -1.0, 1.0)"),
        "grid-region-reversed-im": (("grid", "--region", "0,1,1,-1", "--nx", "3", "-q"),
                                    "grid region (0.0, 1.0, 1.0, -1.0)"),
        "mu-inf": (("spectrum", "--method", "bie", "--mu", "inf"),
                   "'inf': expected a finite number"),
        "mu-inf-imaginary": (("spectrum", "--method", "bie", "--mu", "1+infi"),
                             "'1+infi': expected a finite number"),
        "config-tol-nan": (("spectrum", "--config", "{tmp}/tol.json", *DISK),
                           "determinant.tol"),
        "bie-degenerate-circle": (("spectrum", "--method", "bie", "--shape", "circle:r=1e-300",
                                   "--mu", "2"), "'circle' is irregular"),
        "out-directory-missing": (("spectrum", "--out", "{tmp}/missing/x.csv", *DISK),
                                  "{tmp}/missing/x.csv"),
        "out-unwritable": (("spectrum", "--out", "{tmp}", *DISK), "cannot write output file"),
    }

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_exit_code(self, case, tmp_path, capsys, monkeypatch):
        (tmp_path / "tol.json").write_text('{"determinant": {"tol": NaN}}')
        argv, text = self.BAD_INPUTS[case]
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        text = text.replace("{tmp}", str(tmp_path))
        if case != "out-unwritable":
            def must_not_run(*args, **kwargs):
                raise AssertionError("a bad input reached the solver")
            for name in ("run_spectrum", "run_contour_grid"):
                monkeypatch.setattr(cli, name, must_not_run)
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), captured.err
        assert text in lines[0], captured.err
        assert captured.out == ""

    def test_unit_circle_specs_run_the_determinant_path(self, capsys):
        for shape in ("circle", "circle:r=1", "Circle"):
            assert main(["spectrum", "--shape", shape, *self.DISK]) == 0, capsys.readouterr().err
            rows = read_table_csv(capsys.readouterr().out)
            assert len(rows) == 2 and rows[1][5] == "determinant", (shape, rows)
            assert float(rows[1][0]) == pytest.approx(3.456704, abs=1e-6)

    def test_numerical_failure_exit_code(self):
        proc = self.run_cli(
            "converge", "--method", "determinant", "--n", "4", "--eta", "1",
            "--lambda", "1", "--k-range", "0.6,0.8", "--m-max", "2", "--pmax", "2",
            "--side", "below",
        )
        assert proc.returncode == 3

    def test_partial_results_exit_code(self, tmp_path):
        proc = self.run_cli(
            "sweep", "--method", "determinant", "--n", "0.25", "--eta", "-3",
            "--lambda", "2", "--k-range", "4.8,5.0", "--m-max", "8",
            "--sweep-field", "n", "--sweep-values", "0.1667,0.2",
            "--out", str(tmp_path / "s.csv"),
        )
        assert proc.returncode == 4

    def test_selftest_runs(self):
        proc = self.run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS]" in proc.stdout and "[FAIL]" not in proc.stdout
