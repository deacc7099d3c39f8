"""Serialization, the builtin catalog, and the command line interface."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import mdtk
from mdtk.catalog_cli import (
    MAX_CONDUCTOR,
    _product_bound,
    builtin,
    builtin_names,
    catalog_entries,
    catalog_sweep,
    from_dict,
    load,
    main,
    save,
    to_dict,
)
from mdtk.bounds import bound_check, key_object, lemma_orbit_bound
from mdtk.construct import MetricGroup, deligne_product, fibonacci, ising, pointed, so5_level9
from mdtk.cyclo import RootOfUnity, rational, root_of_unity
from mdtk.galois import conjugate_category, working_conductor
from mdtk.modular import (
    DataFormatError,
    ModularDatum,
    NotModularError,
    data_equal,
    fpdim_pseudounitary,
    normalized_t,
    normalized_t_order,
    verify,
    verlinde_fusion,
)
from test_galois import _seeded_data


# -------------------------------------------------------- serialization


def test_round_trip_exact(tmp_path):
    for md in (ising(1, 1), fibonacci(2), builtin("so5level9-1"),
               builtin("pointed-c7"), builtin("double-c3")):
        path = tmp_path / f"{md.name}.json"
        save(md, str(path))
        again = load(str(path))
        assert data_equal(again, md)
        assert again.name == md.name
        assert again.labels == md.labels


def test_dict_round_trip():
    md = ising(3, -1)
    obj = to_dict(md)
    # serialized form is plain JSON types with string fractions
    blob = json.dumps(obj)
    again = from_dict(json.loads(blob))
    assert data_equal(again, md)


def test_to_dict_encodes_every_entry():
    # 625 objects, 5 distinct S values, each encoded once
    md = pointed(MetricGroup.generator_form((5,) * 4, (1,) * 4))
    assert to_dict(md)["S"] == [[e.to_json() for e in row] for row in md.S]


def test_from_dict_validates_structure():
    with pytest.raises(DataFormatError):
        from_dict({"labels": ["1"]})
    with pytest.raises(DataFormatError):
        from_dict({"labels": ["1"], "S": [], "T": []})


def test_from_dict_rejects_wrong_unit():
    obj = to_dict(ising(1, 1))
    obj["S"][0][0] = {"n": 1, "c": [["2", "1"]]}
    obj["S"][0][1], obj["S"][1][0] = obj["S"][0][0], obj["S"][0][0]
    with pytest.raises(DataFormatError, match="unit normalization"):
        from_dict(obj)


def test_from_dict_rejects_asymmetric():
    obj = to_dict(ising(1, 1))
    obj["S"][1][2] = {"n": 1, "c": [["7", "1"]]}
    with pytest.raises(DataFormatError):
        from_dict(obj)


def test_from_dict_rejects_field_outsider():
    # an S entry outside Q(zeta_N) for N the lcm of twist orders
    obj = to_dict(builtin("pointed-c5"))
    alien = {"n": 7, "c": [["0", "1"], ["1", "1"], ["0", "1"],
                           ["0", "1"], ["0", "1"], ["0", "1"]]}
    obj["S"][1][2] = alien
    obj["S"][2][1] = alien
    with pytest.raises(DataFormatError, match="field"):
        from_dict(obj)


def test_from_dict_rejects_bad_coefficient_length():
    obj = to_dict(ising(1, 1))
    obj["S"][2][2] = {"n": 8, "c": [["0", "1"]]}
    with pytest.raises(DataFormatError, match="phi"):
        from_dict(obj)


def _dense_dict(md: ModularDatum) -> dict:
    """md in the dense form older files hold: every power-basis
    coefficient as a reduced [num, den] pair of strings, zeros included."""
    obj = to_dict(md)
    obj["S"] = [
        [{"n": e.n, "c": [[str(Fraction(v, e.den).numerator), str(Fraction(v, e.den).denominator)]
                          for v in e.num]} for e in row]
        for row in md.S
    ]
    return obj


def _json_trip(obj: dict):
    """from_dict of obj after a pass through JSON text, or the message of
    the DataFormatError it raises."""
    try:
        return from_dict(json.loads(json.dumps(obj)))
    except DataFormatError as e:
        return str(e)


def test_sparse_and_dense_files_load_the_same_data():
    data = _seeded_data(15, 60)
    data += [
        deligne_product(so5_level9(2), builtin("pointed-c3")),
        deligne_product(builtin("double-c2"), fibonacci(3)),
        conjugate_category(deligne_product(ising(1, 1), fibonacci(1)), 7),
    ]
    loaded = 0
    for md in data:
        sparse, dense = to_dict(md), _dense_dict(md)
        assert all("c" not in e and e["den"] != "0" for row in sparse["S"] for e in row)
        got, old = _json_trip(sparse), _json_trip(dense)
        if isinstance(got, str):
            # a seeded mutation by a cube root of unity can leave the field
            # of T, which both forms reject with the same message
            assert got == old and "does not lie in" in got, (md.name, got, old)
            continue
        loaded += 1
        assert data_equal(got, md) and data_equal(old, md), md.name
        assert (got.name, got.labels) == (old.name, old.labels) == (md.name, md.labels)
        assert [e.n for row in got.S for e in row] == [e.n for row in md.S for e in row]
    assert loaded >= len(builtin_names()) + 5 + 40, loaded


def test_repeated_entries_are_parsed_once(tmp_path, monkeypatch):
    from mdtk import cyclo
    from mdtk.construct import MetricGroup, pointed

    md = pointed(MetricGroup.generator_form((27,), (2,)), name="pointed-c27")
    path = tmp_path / "p27.json"
    save(md, str(path))
    real = cyclo.Cyc.from_json
    parsed = []

    def counted(obj):
        parsed.append(obj)
        return real(obj)

    monkeypatch.setattr(cyclo.Cyc, "from_json", staticmethod(counted))
    again = load(str(path))
    assert data_equal(again, md) and again.labels == md.labels
    distinct = {json.dumps(e) for row in to_dict(md)["S"] for e in row}
    assert len(parsed) == len(distinct) == 27 < md.rank ** 2


def test_a_repeated_malformed_entry_fails_as_one_copy_does():
    one = {"n": 1, "den": "1", "terms": [[0, "1"]]}
    for bad in ({"n": True, "den": "1", "terms": [[0, "1"]]},
                {"n": 1, "den": 1.0, "terms": [[0, "1"]]},
                {"n": 1, "den": "1", "terms": [[0, True]]},
                {"n": 8, "den": "1", "terms": [[4, "1"]]},
                {"n": 1, "c": [[1.5, 1]]},
                "1"):
        single = to_dict(ising(1, 1))
        single["S"][2][2] = bad
        repeated = to_dict(ising(1, 1))
        for i in (1, 2):
            for j in (1, 2):
                repeated["S"][i][j] = bad
        # the unit entry parses first; an entry that compares equal to it
        # in Python (True == 1, 1.0 == 1) must not reuse its value
        repeated["S"][0][0] = one
        got = _json_trip(single)
        assert got.startswith("bad matrix entry: "), (bad, got)
        assert _json_trip(repeated) == got, bad


def test_sparse_form_caps_the_conductor_before_parsing():
    obj = to_dict(ising(1, 1))
    obj["S"][2][2] = {"n": 10**18 + 9, "den": "1", "terms": []}
    start = time.perf_counter()
    with pytest.raises(DataFormatError, match=f"above the limit {MAX_CONDUCTOR}"):
        from_dict(obj)
    assert time.perf_counter() - start < 1.0


def malformed_dicts():
    zero_den = to_dict(ising(1, 1))
    zero_den["S"][2][2] = {"n": 1, "c": [["1", "0"]]}
    bad_labels = to_dict(ising(1, 1))
    bad_labels["labels"] = 5
    return zero_den, bad_labels


def hostile_conductor_dicts():
    big_t = to_dict(ising(1, 1))
    big_t["T"][2] = {"m": 20011, "k": 1}
    big_s = to_dict(ising(1, 1))
    big_s["S"][2][2] = {"n": 10**18 + 9, "c": [["1", "1"]]}
    return big_t, big_s


def test_from_dict_caps_the_conductor_before_parsing():
    for obj in hostile_conductor_dicts():
        start = time.perf_counter()
        with pytest.raises(DataFormatError, match=f"above the limit {MAX_CONDUCTOR}"):
            from_dict(obj)
        assert time.perf_counter() - start < 1.0
    # the largest datum the library builds, working conductor 8640, still loads
    md = deligne_product(deligne_product(ising(1, 1), fibonacci(1)), so5_level9(1))
    assert working_conductor(md) == 8640 <= MAX_CONDUCTOR
    assert data_equal(from_dict(json.loads(json.dumps(to_dict(md)))), md)


def test_cli_hostile_conductor_is_one_error_line(tmp_path, capsys):
    for obj in hostile_conductor_dicts():
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "above the limit" in err and err.count("\n") == 1


def test_cli_non_integer_json_number_is_one_error_line(tmp_path, capsys):
    one = {"n": 1, "c": [["1", "1"]]}
    for entry, t in (({"n": 1, "c": [[1.5, 1]]}, {"m": 1, "k": 0}),
                     ({"n": 1, "c": [[True, 2.9]]}, {"m": 1, "k": 0}),
                     ({"n": True, "c": [["1", "1"]]}, {"m": 1, "k": 0}),
                     (one, {"m": True, "k": False})):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": ["1"], "S": [[entry]], "T": [t]}))
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad matrix entry: ") and err.count("\n") == 1, err


def test_cli_deeply_nested_entry_is_one_error_line(tmp_path, capsys):
    # this deep, json.load raises RecursionError, not JSONDecodeError
    bad = tmp_path / "bad.json"
    text = json.dumps({"labels": ["1"], "S": [["entry"]], "T": [{"m": 1, "k": 0}]})
    bad.write_text(text.replace('"entry"', "[" * 5000 + "]" * 5000))
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1, err


def negative_dim_dict():
    """Rank 3 with S = [[1, i, i], [i, 1, 0], [i, 0, 1]] and T = (1, z4^3, z4):
    D = 1 + i^2 + i^2 = -1, tau+ = 1 - z4 - z4^3 = 1, anomaly -1."""
    one, zero = {"n": 1, "c": [["1", "1"]]}, {"n": 1, "c": [["0", "1"]]}
    i = {"n": 4, "c": [["0", "1"], ["1", "1"]]}
    return {
        "name": "negative-dim",
        "labels": ["1", "a", "b"],
        "S": [[one, i, i], [i, one, zero], [i, zero, one]],
        "T": [{"m": 1, "k": 0}, {"m": 4, "k": 3}, {"m": 4, "k": 1}],
    }


def test_negative_global_dim_has_no_normalized_t():
    # tau+ g^(-3) squares to D = -1, so no sixth root g of the anomaly
    # makes it a positive square root of D
    md = from_dict(negative_dim_dict())
    for fn in (normalized_t, normalized_t_order, key_object,
               lambda md: lemma_orbit_bound(md, "a")):
        with pytest.raises(NotModularError, match="no sixth root of the anomaly"):
            fn(md)


def test_cli_report_on_negative_global_dim_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(negative_dim_dict()))
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_on_negative_global_dim_exits_1_without_traceback(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(negative_dim_dict()))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mdtk.__file__)))
    run_main = "import sys; from mdtk.catalog_cli import main; sys.exit(main())"
    for args in (["verify"], ["report"], ["fusion"], ["orbits"],
                 ["bound-check", "--classify"], ["conjugate", "--k", "3"]):
        proc = subprocess.run(
            [sys.executable, "-c", run_main, args[0], str(path), *args[1:]],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)


def test_python_m_mdtk_runs_the_cli_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mdtk.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "mdtk", "catalog", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert tuple(e["name"] for e in json.loads(proc.stdout)) == builtin_names()


def test_python_m_mdtk_catalog_cli_fails_and_names_the_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mdtk.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "mdtk.catalog_cli", "catalog", "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    # one line, with no runpy warning before it
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ") and "`python -m mdtk`" in lines[0], proc.stderr


def test_cli_product_caps_the_conductor_before_multiplying(tmp_path, capsys):
    # each factor passes the load cap (12 * 16 and 12 * 63), but the
    # product needs 12 * lcm(16, 63) = 12096
    paths = []
    for n in (16, 63):
        z = root_of_unity(n, 1)
        md = ModularDatum(["1", "x"], [[1, z], [z, 1]], [1, RootOfUnity.make(n, 1)],
                          name=f"c{n}")
        paths.append(str(tmp_path / f"c{n}.json"))
        save(md, paths[-1])
        assert data_equal(load(paths[-1]), md)
    out = tmp_path / "product.json"
    assert main(["product", *paths, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "12096, above the limit" in err
    assert not out.exists()


def test_from_dict_rejects_zero_denominator_and_non_list_labels():
    zero_den, bad_labels = malformed_dicts()
    with pytest.raises(DataFormatError, match="zero denominator"):
        from_dict(zero_den)
    with pytest.raises(DataFormatError, match="labels must be a list"):
        from_dict(bad_labels)


# -------------------------------------------------------------- catalog


def test_builtin_names_census():
    names = builtin_names()
    assert len(names) == 32
    assert len([n for n in names if n.startswith("ising-")]) == 16
    assert len([n for n in names if n.startswith("fibonacci-")]) == 4
    assert len([n for n in names if n.startswith("so5level9-")]) == 6
    assert "pointed-c3" in names and "pointed-c9" in names
    assert "double-c2" in names and "double-c3" in names


def test_builtin_lookup():
    md = builtin("fibonacci-2")
    assert data_equal(md, fibonacci(2))
    with pytest.raises(DataFormatError):
        builtin("no-such-entry")


def test_catalog_entries_metadata():
    entries = catalog_entries()
    assert len(entries) == 32
    for e in entries:
        assert e.name == e.datum.name
        assert e.source
    spot = {e.name: e for e in entries}
    assert verify(spot["pointed-c9"].datum).ok


def test_catalog_sweep_runs_clean():
    import io

    sink = io.StringIO()
    assert catalog_sweep(sink)
    out = sink.getvalue()
    assert "0 violations" in out
    assert "FAIL" not in out
    # silent mode only returns the flag
    assert catalog_sweep() is True


def test_product_bound_matches_bound_check_on_builtin_products():
    for a, b in (("ising-1-p", "ising-3-m"), ("so5level9-1", "pointed-c9"),
                 ("fibonacci-1", "fibonacci-2")):
        v = _product_bound(builtin(a), builtin(b))
        want = bound_check(deligne_product(builtin(a), builtin(b)))
        assert (v.fsexp, v.ndim, v.prime, v.bound_holds, v.extremal, v.tier) == (
            want.fsexp, want.ndim, want.prime, want.bound_holds, want.extremal, want.tier
        )


def test_product_bound_rejects_non_integer_norm():
    # global dimension 1 + 1/4 = 5/4, so the product's norm is 25/16
    half = rational(Fraction(1, 2))
    S = ((rational(1), half), (half, rational(1)))
    T = (RootOfUnity.one(), RootOfUnity.make(2, 1))
    bad = ModularDatum(("1", "x"), S, T, name="bad-norm")
    with pytest.raises(NotModularError, match="not a positive integer"):
        _product_bound(bad, bad)


# ------------------------------------------------------------------ CLI


def test_cli_verify_builtin(capsys):
    assert main(["verify", "ising-1-p"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_verify_json(capsys):
    assert main(["verify", "ising-1-p", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ok"] is True
    assert {c["name"] for c in obj["checks"]} >= {"balancing", "s-symmetric"}


def test_cli_verify_file(tmp_path, capsys):
    path = tmp_path / "fib.json"
    save(fibonacci(1), str(path))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_cli_unknown_datum(capsys):
    assert main(["verify", "not-a-real-name"]) == 1
    err = capsys.readouterr()
    assert "not-a-real-name" in err.err or "not-a-real-name" in err.out


def test_cli_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_construct_bad_parameter(capsys):
    # family validation errors must render as one-line errors, not tracebacks
    assert main(["construct", "ising", "--j", "4"]) == 1
    assert "odd mod 16" in capsys.readouterr().err
    assert main(["construct", "so5level9", "--j", "3"]) == 1
    assert "unit mod 9" in capsys.readouterr().err


def test_cli_report(capsys):
    assert main(["report", "fibonacci-1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rank"] == 2
    assert obj["ndim"] == 5
    assert obj["fs_exponent"] == 5
    assert obj["normalized_t_order"] == 20
    assert obj["gamma"] == "z20^11"
    assert obj["anomaly"] == "z10^3"


def test_cli_fusion(capsys):
    assert main(["fusion", "ising-1-p"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out


def test_cli_orbits(capsys):
    assert main(["orbits", "fibonacci-1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["working_conductor"] == 60
    rows = {r["label"]: r for r in obj["orbits"]}
    assert rows["1"]["orbit"] == ["1", "tau"]
    assert rows["1"]["squared_orbit"] == ["1"]


def test_cli_construct_writes_file(tmp_path, capsys):
    path = tmp_path / "c7.json"
    rc = main(["construct", "pointed", "--orders", "7", "--exps", "1",
               "-o", str(path)])
    assert rc == 0
    capsys.readouterr()
    md = load(str(path))
    assert md.rank == 7
    assert verify(md).ok


def test_cli_construct_writes_pointed_c81_compactly(tmp_path, capsys):
    # the same datum takes 7.4 MB written with indent=1 and 2.5 MB with
    # every power-basis coefficient; the sparse form takes 0.27 MB
    path = tmp_path / "c81.json"
    assert main(["construct", "pointed", "--orders", "81", "-o", str(path)]) == 0
    capsys.readouterr()
    assert os.path.getsize(path) < 400_000
    tracemalloc.start()
    try:
        md = load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # loading the 2.5 MB dense file peaked at 23.9 MB; this one at 5.2 MB
    assert peak < 10_000_000, peak
    assert md.rank == 81


def test_cli_construct_ising(tmp_path, capsys):
    path = tmp_path / "is.json"
    assert main(["construct", "ising", "--j", "3", "--eps", "-1",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    assert data_equal(load(str(path)), ising(3, -1))


def test_cli_conjugate(tmp_path, capsys):
    path = tmp_path / "conj.json"
    assert main(["conjugate", "fibonacci-1", "--k", "7", "-o", str(path)]) == 0
    capsys.readouterr()
    assert data_equal(load(str(path)), fibonacci(2))


def test_cli_product(tmp_path, capsys):
    path = tmp_path / "prod.json"
    assert main(["product", "ising-1-p", "ising-3-p", "-o", str(path)]) == 0
    capsys.readouterr()
    md = load(str(path))
    assert md.rank == 9
    assert verify(md).ok


def test_cli_bound_check(capsys):
    assert main(["bound-check", "ising-1-p"]) == 0
    out = capsys.readouterr().out
    assert "16 <= 16" in out


def test_cli_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("ising-1-p", "fibonacci-4", "so5level9-8", "double-c3"):
        assert name in out


def test_cli_catalog_all(capsys):
    assert main(["catalog", "--all"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_cli_load_error_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"labels\": [\"1\"]}")
    assert main(["verify", str(bad)]) == 1
    capsys.readouterr()


def test_cli_malformed_json_is_one_error_line(tmp_path, capsys):
    for obj in malformed_dicts():
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_fpdim_and_report_do_not_import_numpy(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert fpdim_pseudounitary(so5_level9(1))[1] is False
    assert main(["report", "so5level9-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pseudounitary"] is False


def test_from_dict_accepts_an_entry_written_at_a_larger_conductor():
    # S[g1][g2] of pointed-c5 lies in Q(zeta_5) but is written at 15
    md = builtin("pointed-c5")
    obj = to_dict(md)
    wide = md.S[1][2].lift(15).to_json()
    assert wide["n"] == 15
    obj["S"][1][2] = wide
    obj["S"][2][1] = wide
    again = from_dict(obj)
    assert again.S[1][2].n == 15
    assert data_equal(again, md)


def test_cli_fusion_json_lists_the_verlinde_coefficients(tmp_path, capsys):
    path = tmp_path / "if.json"
    assert main(["product", "ising-1-p", "fibonacci-1", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["fusion", str(path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    ft = verlinde_fusion(load(str(path)))
    r = ft.rank
    want = [
        {"x": ft.labels[x], "y": ft.labels[y], "z": ft.labels[z], "n": ft.N[x][y][z]}
        for x in range(r) for y in range(x, r) for z in range(r) if ft.N[x][y][z]
    ]
    assert obj == {"name": "(ising-1-p)x(fibonacci-1)", "fusion": want}


def test_cli_bound_check_json_fields(capsys):
    head = [("name", "ising-1-p"), ("fsexp", 16), ("ndim", 4), ("prime", 2),
            ("bound_holds", True), ("extremal", True), ("tier", 4)]
    for extra, cls in (([], None), (["--classify"], "ising-x-pointed(1)")):
        assert main(["bound-check", "ising-1-p", "--json", *extra]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert list(obj.items()) == head + [("extremal_class", cls)]


def test_cli_verify_json_check_fields(tmp_path, capsys):
    md = ising(1, 1)
    S = [list(row) for row in md.S]
    S[1][2] = S[2][1] = S[1][2] + 1
    path = tmp_path / "bad.json"
    save(ModularDatum(md.labels, S, md.T, name="perturbed"), str(path))
    assert main(["verify", str(path), "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["name", "ok", "checks"]
    assert obj["ok"] is False
    rep = verify(load(str(path)))
    assert obj["checks"] == [
        {"name": c.name, "passed": c.passed, "witness": c.witness} for c in rep.checks
    ]
    assert all(list(c) == ["name", "passed", "witness"] for c in obj["checks"])
    assert any(c["witness"] for c in obj["checks"])


def test_cli_report_text(capsys):
    assert main(["report", "fibonacci-1"]) == 0
    assert capsys.readouterr().out == (
        "name:            fibonacci-1\n"
        "rank:            2\n"
        "  dim(1) = 1  ~ 1\n"
        "  dim(tau) = -z5^2 - z5^3  ~ 1.618033989\n"
        "global dim:      2 - z5^2 - z5^3  ~ 3.618033989\n"
        "Ndim (norm):     5\n"
        "FSexp:           5\n"
        "normalized T:    order 20, gamma = z20^11\n"
        "anomaly:         z10^3 (order 10)\n"
        "gauss sums:      -z5 + z5^3 / 1 + z5 + 2*z5^2 + z5^3\n"
        "FPdim:           3.61803398875 (pseudounitary: True)\n"
        "invertibles:     1\n"
        "symmetric center: 1\n"
    )


def test_cli_orbits_text(capsys):
    assert main(["orbits", "fibonacci-1"]) == 0
    assert capsys.readouterr().out == (
        "working conductor: 60\n"
        "1: orbit {1, tau}, squared orbit {1} (dim^2 sum 1)\n"
        "tau: orbit {1, tau}, squared orbit {tau} (dim^2 sum 1 - z5^2 - z5^3)\n"
    )
