import json

from odegeom import geom, pentad, so3
from odegeom.cli import run

JSON_KEYS = {"name", "status", "max_residual", "tolerance", "samples", "seed", "notes"}


def test_pentad_gn5_named_check():
    code, text = run(["pentad", "--ode", "gn5"])
    assert code == 0
    assert "P_equals_r_1_3" in text


def test_pentad_json_schema():
    code, text = run(["pentad", "--ode", "gn5", "--json"])
    assert code == 0
    rows = json.loads(text)
    assert isinstance(rows, list) and rows
    for row in rows:
        assert set(row) == JSON_KEYS
        assert row["status"] in ("pass", "fail", "error")
    names = [r["name"] for r in rows]
    assert names == sorted(names)


def test_json_byte_identical():
    _, t1 = run(["pentad", "--ode", "gn5", "--json"])
    _, t2 = run(["pentad", "--ode", "gn5", "--json"])
    assert t1 == t2


def test_unknown_ode_exit_2():
    code, text = run(["geom", "--ode", "unknown"])
    assert code == 2
    assert "unknown" in text


def test_geom_rejects_order4():
    code, text = run(["geom", "--ode", "conics4"])
    assert code == 2


def test_so3_rejects_gn5():
    code, text = run(["so3", "--ode", "gn5"])
    assert code == 2


def test_radon_rejects_gn5():
    code, text = run(["radon", "--ode", "gn5"])
    assert code == 2


def test_malformed_f_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "q +"])
    assert code == 2


def test_radon_point_requires_all_coords():
    code, text = run(["radon", "--ode", "conics5", "--point", "y=1,p=0.3"])
    assert code == 2


def test_bad_seed_overrides_are_recorded():
    code, text = run(["pentad", "--ode", "gn5", "--seed", "7", "--json"])
    assert code == 0
    rows = json.loads(text)
    assert all(r["seed"] == 7 for r in rows)


def test_samples_and_tol_overrides():
    code, text = run(["pentad", "--ode", "gn5", "--samples", "10", "--tol", "1e-7", "--json"])
    assert code == 0
    rows = json.loads(text)
    sampled = [r for r in rows if r["name"].startswith("residual_identity")]
    assert sampled and all(r["samples"] == 10 and r["tolerance"] == 1e-7 for r in sampled)


def test_ode_file(tmp_path):
    path = tmp_path / "mine.ode"
    path.write_text("name = mine\norder = 5\nrhs = -(40/9)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 0
    # the file holds the conics5 equation, so it resolves to that built-in
    assert "residual_identity_1" in text


def test_ode_file_selects_builtin_by_equation(tmp_path):
    # a file named conics5 that holds the gn5 equation gets the gn5 catalogue
    path = tmp_path / "c.ode"
    path.write_text("name = conics5\norder = 5\nrhs = (5/3)*s^2/r\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 0
    assert "P_equals_r_1_3" in text and "P_equals_q_1_2" not in text
    # the conics5 equation with its terms reordered, under another name
    path.write_text("name = mine\norder = 5\nrhs = 5*r*s/q - (40/9)*r^3/q^2\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 0
    assert "P_equals_q_1_2" in text
    # a built-in's name on an equation that is no built-in
    path.write_text("name = conics5\norder = 5\nrhs = -(41/9)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 2
    assert text.startswith("error:") and "conics5" in text


def test_failing_check_exit_1(tmp_path):
    # an equation without the structure: identities fail, exit code 1
    path = tmp_path / "bad.ode"
    path.write_text("name = bad\norder = 5\nrhs = -(41/9)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 1
    assert "fail" in text


def test_oversized_constant_exit_2(tmp_path):
    code, text = run(["radon", "--ode", "conics5", "--f", "(10^400)^(1/2)*x"])
    assert code == 2
    assert text.startswith("error:")
    path = tmp_path / "big.ode"
    path.write_text("name = big\norder = 5\nrhs = (10^400)^(1/2)*r^3/q^2 + 5*r*s/q\n")
    code, text = run(["pentad", "--ode", str(path)])
    assert code == 2
    assert text.startswith("error:")


def test_radon_f_overflowing_power_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "(x + 2)^100000"])
    assert code == 2
    assert text.startswith("error:")


def test_radon_branch_error_names_first_bad_node():
    code, text = run(["radon", "--ode", "conics5", "--interval", "-5", "5"])
    assert code == 2
    assert "x=3.224864142447385" in text


def test_radon_f_nonfinite_intermediate_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "x + 1/(1 + 1/(x - x))"])
    assert code == 2
    assert text.startswith("error:")
    assert "np.float64" not in text


def test_radon_f_negative_fractional_base_exit_2():
    code, text = run(["radon", "--ode", "conics5", "--f", "(x - 0.9)^(1/2)"])
    assert code == 2
    assert "{'x': -0.7993680985819488, 'y': 1.38743434848519}" in text


def _count_stages(monkeypatch):
    counts = {"solve_pentad": 0, "build_G": 0, "second_order": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pentad, "solve_pentad", counted("solve_pentad", pentad.solve_pentad))
    monkeypatch.setattr(so3, "build_G", counted("build_G", so3.build_G))
    tables = geom.MetricField._derivative_exprs

    def second_order(self):
        if self._deriv_cache is None:
            counts["second_order"] += 1
        return tables(self)

    monkeypatch.setattr(geom.MetricField, "_derivative_exprs", second_order)
    return counts


def test_all_runs_each_stage_once(monkeypatch):
    counts = _count_stages(monkeypatch)
    code, _ = run(["all", "--ode", "conics5", "--json"])
    assert code == 0
    assert counts == {"solve_pentad": 1, "build_G": 1, "second_order": 1}


def test_geom_point_reuses_the_session(monkeypatch):
    counts = _count_stages(monkeypatch)
    code, text = run(["geom", "--ode", "gn5", "--point", "y=1,p=0.5,q=1.5,r=0.7,s=0.3"])
    assert code == 0
    assert "scalar curvature at point" in text
    assert counts == {"solve_pentad": 1, "build_G": 0, "second_order": 1}
