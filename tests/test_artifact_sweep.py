import json

from artifact_sweep import _fingerprint, compare, report_lines


def _tree(root, calls):
    """A sweep result at `root`: calls maps a call to (exit code, {file name:
    text}), each call's files written under calls/<index>/."""
    results = {}
    for i, (call, (code, files)) in enumerate(calls.items()):
        out = root / "calls" / f"{i:02d}"
        out.mkdir(parents=True)
        for name, text in files.items():
            (out / name).write_text(text)
        results[call] = {"exit": code, "dir": f"calls/{i:02d}", "files": _fingerprint(out)}
    (root / "sweep.json").write_text(json.dumps(results))
    return root


def _rho(re):
    return json.dumps({"modes": 1, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]}, indent=1)


def test_compare_reports_exit_codes_bytes_and_largest_differences(tmp_path):
    manifest = {"outputs": [], "wall_time_s": 1.5}
    a = _tree(tmp_path / "a", {
        "evolve fock --method pdm": (0, {
            "rho_det.json": _rho([[0.5, 0.0], [0.0, 0.5]]),
            "distribution_iter_001.csv": "0;2.5e-01\n1;7.5e-01\n",
            "manifest.json": json.dumps(manifest),
            "run_info.json": json.dumps({"method": "pdm", "n": 3})}),
        "stationary l0 --method superop": (0, {"summary.json": "{}"}),
    })
    b = _tree(tmp_path / "b", {
        "evolve fock --method pdm": (0, {
            "rho_det.json": _rho([[0.5, 1e-17], [0.0, 0.4]]),
            "distribution_iter_001.csv": "0;2.5e-01\n1;7.5e-01\n",
            "manifest.json": json.dumps({**manifest, "wall_time_s": 9.0}),
            "run_info.json": json.dumps({"method": "kraus", "n": 3, "extra": 1}),
            "new.csv": "0;1\n"}),
        "stationary l0 --method superop": (4, {}),
    })
    result = compare(a, b)
    pdm = result["evolve fock --method pdm"]
    assert pdm["exit"] == (0, 0)
    files = pdm["files"]
    assert files["distribution_iter_001.csv"] == {"equal": True}
    assert files["manifest.json"] == {"equal": True}
    assert files["new.csv"] is None
    rho = files["rho_det.json"]
    assert rho["equal"] is False and rho["same_shape"] is True
    assert rho["max_abs"][1] == ("re", 1, 1) and abs(rho["max_abs"][0] - 0.1) < 1e-15
    assert rho["max_rel"] == (1.0, ("re", 0, 1))
    assert rho["other"] == []
    info = files["run_info.json"]
    assert info["same_shape"] is False
    assert info["max_abs"] == (0.0, None)
    assert info["other"] == [(("method",), "pdm", "kraus")]
    refused = result["stationary l0 --method superop"]
    assert refused["exit"] == (0, 4)
    assert refused["files"] == {"summary.json": None}
    lines = report_lines(result)
    assert lines[-1] == "2 calls, 1 with equal exit codes; 2 of 6 files byte-equal"
    assert "    ('method',): 'pdm' / 'kraus'" in lines


def test_compare_reads_csv_numbers_by_row_and_column(tmp_path):
    a = _tree(tmp_path / "a", {"c": (0, {"d.csv": "0;1.0e-01\n1,0;2.0e-01\n"})})
    b = _tree(tmp_path / "b", {"c": (0, {"d.csv": "0;1.0e-01\n1,0;2.5e-01\n"})})
    entry = compare(a, b)["c"]["files"]["d.csv"]
    assert entry["same_shape"] is True
    assert entry["max_abs"][1] == (1, 1) and abs(entry["max_abs"][0] - 0.05) < 1e-15
    assert entry["max_rel"][1] == (1, 1) and abs(entry["max_rel"][0] - 0.2) < 1e-15
    assert entry["other"] == []
