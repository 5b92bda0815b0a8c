"""Command-line workflows: configuration, file formats, pipelines, exit codes."""

import concurrent.futures
import io
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordnet import (
    DataError,
    GroupedDataset,
    Nu0SearchConfig,
    edge_count_prior,
    fit_ssl,
    line_search_nu0,
)
import ordnet
from ordnet import cli
from ordnet.cli import (
    ConfigError,
    load_grouped_dataset,
    main,
    parse_config,
    read_data_csv,
    read_json,
    read_manifest,
    write_data_csv,
    write_json,
    write_manifest,
)

SIM_LINES = (
    "p = 12",
    "levels = 1,2,3,4",
    "n_base_edges = 12",
    "n_appearing = 4",
    "n_disappearing = 4",
    "n_per_group = 60",
    "seed = 5",
)


def write_config(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    config = write_config(root / "sim.conf", *SIM_LINES)
    assert main(["simulate", "--config", config, "--out-dir", str(root / "out")]) == 0
    return root / "out"


class TestParseConfig:
    def test_reads_types_and_comments(self, tmp_path):
        path = write_config(
            tmp_path / "run.conf",
            "# benchmark settings",
            "p = 20  # nodes",
            "levels = 1,2,3",
            "nu0 = 1:0.02,2:0.03,3:0.04",
            "nu0_grid = 0.01,0.05",
            "partial_corr_magnitude = 0.25",
            "method = ssl",
        )
        cfg = parse_config(path)
        assert cfg["p"] == 20
        assert cfg["levels"] == (1, 2, 3)
        assert cfg["nu0"] == {1: 0.02, 2: 0.03, 3: 0.04}
        assert cfg["nu0_grid"] == (0.01, 0.05)
        assert cfg["partial_corr_magnitude"] == 0.25
        assert cfg["method"] == "ssl"

    def test_scalar_nu0(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "run.conf", "nu0 = 0.04"))
        assert cfg["nu0"] == 0.04

    def test_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path / "run.conf", "unknown_knob = 1")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config(path)

    def test_rejects_duplicate_key(self, tmp_path):
        path = write_config(tmp_path / "run.conf", "p = 5", "p = 6")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)
        path = write_config(tmp_path / "nu0.conf", "nu0 = 1:0.03,2:0.04,1:0.05")
        with pytest.raises(ConfigError, match="duplicate level in 'nu0'"):
            parse_config(path)

    def test_rejects_bad_value(self, tmp_path):
        path = write_config(tmp_path / "run.conf", "p = twenty")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(path)

    def test_rejects_bad_method_and_counts(self, tmp_path):
        with pytest.raises(ConfigError, match="method"):
            parse_config(write_config(tmp_path / "a.conf", "method = unknown"))
        with pytest.raises(ConfigError, match="threads"):
            parse_config(write_config(tmp_path / "b.conf", "threads = 0"))
        with pytest.raises(ConfigError, match="replicates"):
            parse_config(write_config(tmp_path / "c.conf", "replicates = 0"))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "absent.conf"))

    @pytest.mark.parametrize(
        "line",
        ["k = 5", "ppi_threshold = 0.5", "truth_json = t.json", "metrics_csv = m.csv",
         "out_prefix = run", "out_dir = data", "manifest = data/manifest.csv",
         "fit_json = fit.json", "report_json = nu0.json"],
    )
    def test_keys_no_command_reads_are_unknown(self, tmp_path, line):
        path = write_config(tmp_path / "run.conf", line)
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config(path)

    def test_documented_keys_match_the_parser(self):
        text = (Path(__file__).resolve().parents[1] / "docs" / "file-formats.md").read_text(
            encoding="utf-8"
        )
        section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for kind, body in re.findall(
            r"^- (integers|floats|strings|lists): (.*?)(?=^\S|^- |\Z)", section, re.M | re.S
        ):
            documented[kind] = set(re.findall(r"`([a-z0-9_]+)`", body))
        assert documented == {
            "integers": cli._INT_KEYS,
            "floats": cli._FLOAT_KEYS,
            "strings": cli._STR_KEYS,
            "lists": cli._LIST_KEYS,
        }
        assert set().union(*documented.values()) == cli._ALL_KEYS


class TestFileFormats:
    def test_data_csv_round_trip_is_exact(self, tmp_path, rng):
        data = rng.standard_normal((7, 3))
        names = ("alpha", "beta", "gamma")
        path = str(tmp_path / "data.csv")
        write_data_csv(path, data, names)
        back_names, back = read_data_csv(path)
        assert back_names == names
        assert np.array_equal(back, data)

    def test_data_csv_bytes_match_the_value_formatter(self, tmp_path, rng):
        # Each value as cli._format_float writes it, one call per value.
        data = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-8, 9, size=(6, 5))
        data[0, :] = [-0.0, 5e-324, 1e16, 1e-5, 0.0]
        data[1, :3] = [-1e16, 1.7976931348623157e308, 0.1]
        names = ("a", "b", "c", "d", "e")
        path = tmp_path / "data.csv"
        write_data_csv(str(path), data, names)
        expected = "a,b,c,d,e\n" + "".join(
            ",".join(cli._format_float(v) for v in row) + "\n" for row in data
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert "-0.0,5e-324,1e+16,1e-05,0.0\n" in expected

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_data_csv_rejects_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "data.csv"
        path.write_text(f"a,b\n1.0,2.0\n\n3.0,{bad}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"data\.csv:4: non-finite value .* column 'b'"):
            read_data_csv(str(path))

    def test_manifest_round_trip(self, tmp_path):
        entries = [("data_level_1.csv", 1, 50), ("data_level_2.csv", 2, 60)]
        path = str(tmp_path / "manifest.csv")
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_json_kind_and_version_checked(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json(path, {"schema_version": "1.0", "kind": "truth", "p": 3})
        assert read_json(path, expected_kind="truth")["p"] == 3
        with pytest.raises(Exception, match="expected a 'fit'"):
            read_json(path, expected_kind="fit")
        write_json(path, {"schema_version": "2.0", "kind": "truth"})
        with pytest.raises(Exception, match="schema major version"):
            read_json(path, expected_kind="truth")


# Strings that a bracket-matching reader could mistake for structure.
_JSON_TEXT = st.one_of(
    st.text(st.sampled_from('[]{}",:\\/ \n\t\x00\x1faé€😀'), max_size=6), st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@st.composite
def _documents_and_fields(draw):
    doc = draw(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=6))
    doc.update(schema_version="1.0", kind="fit")
    keys = sorted(doc) + ["absent"]
    return doc, draw(st.none() | st.lists(st.sampled_from(keys), unique=True))


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "doc.json"


class TestReadJson:
    """``read_json`` with ``fields`` decodes exactly what ``json.loads`` would."""

    @given(_documents_and_fields(), st.sampled_from([None, 2]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_fields_equal_json_loads(self, json_path, doc_fields, indent, ascii_only):
        doc, fields = doc_fields
        separators = (",", ":") if indent is None else None
        text = json.dumps(doc, indent=indent, separators=separators, ensure_ascii=ascii_only)
        json_path.write_text(text, encoding="utf-8")
        loaded = json.loads(text)
        wanted = loaded.keys() if fields is None else {"schema_version", "kind", *fields}
        expected = {key: value for key, value in loaded.items() if key in wanted}
        assert read_json(str(json_path), "fit", fields) == expected

    @pytest.mark.parametrize("fields", [None, ("a",), ("b",)])
    def test_duplicate_keys_keep_the_last_value(self, tmp_path, fields):
        text = (
            '{"schema_version":"1.0","kind":"fit","a":[1,"]"],"b":{"x":"}"},'
            '"a":{"z":[2]},"b":3}'
        )
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        loaded = json.loads(text)
        wanted = loaded.keys() if fields is None else {"schema_version", "kind", *fields}
        doc = read_json(str(path), "fit", fields)
        assert doc == {key: value for key, value in loaded.items() if key in wanted}
        assert loaded["a"] == {"z": [2]} and loaded["b"] == 3

    @pytest.mark.parametrize(
        "text, message",
        [(" {\n} ", "missing schema_version field"),
         ('[{"schema_version": "1.0", "kind": "fit"}]', "expected a JSON object, got list"),
         ('"fit"', "expected a JSON object, got str")],
        ids=["empty-object", "array", "string"],
    )
    def test_documents_that_are_not_fit_objects(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        for fields in (None, ("x",)):
            with pytest.raises(DataError, match=message):
                read_json(str(path), "fit", fields)

    @pytest.mark.parametrize(
        "tail",
        ['"x":[1,[2,{"y":"]"}]', '"x":[1,2}', '"x":{"y":[1]]}', '"x" [1]', '"x":[1] "y":2',
         '"x":[1],', '"x":"]', '"x":[1]}{}', '"x":[1]} x', '"x":[1]}]'],
        ids=["unterminated", "mismatched", "mismatched-inner", "no-colon", "no-comma",
             "trailing-comma", "unterminated-string", "second-object", "trailing-text",
             "trailing-bracket"],
    )
    def test_broken_structure_is_invalid_json(self, tmp_path, tail):
        path = tmp_path / "doc.json"
        path.write_text('{"schema_version":"1.0","kind":"fit",' + tail, encoding="utf-8")
        for fields in (None, ("x",), ("y",)):
            with pytest.raises(DataError, match=r"doc\.json: invalid JSON"):
                read_json(str(path), "fit", fields)

    def test_document_cut_anywhere_is_invalid_json(self, joint_fit_doc, tmp_path):
        data = joint_fit_doc.read_bytes()
        path = tmp_path / "fit.json"
        cuts = range(997, len(data.rstrip()), 997)
        assert len(cuts) > 10
        for cut in cuts:
            path.write_bytes(data[:cut])
            for fields in (None, ("levels", "p", "ppi", "method"), ("beta_mean", "p")):
                with pytest.raises(DataError, match="invalid JSON"):
                    read_json(str(path), "fit", fields)

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"schema_version":"1.0","kind":"fit","x":"\xff"}')
        with pytest.raises(DataError, match="not UTF-8 text"):
            read_json(str(path), "fit", ("x",))


def json_dumped(doc) -> bytes:
    """What the file of ``write_json(path, doc)`` must hold: json.dump's bytes."""
    buffer = io.StringIO()
    json.dump(doc, buffer, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)
    return (buffer.getvalue() + "\n").encode("utf-8")


class TestWriteJson:
    def test_pipeline_documents_match_json_dump(self, tmp_path, monkeypatch):
        written = []
        original = cli.write_json

        def recording(path, doc):
            original(path, doc)
            written.append((path, doc))

        monkeypatch.setattr(cli, "write_json", recording)
        config = write_config(tmp_path / "run.conf", *SIM_LINES, "nu0_grid = 0.03,0.06")
        sim, report = tmp_path / "sim", str(tmp_path / "nu0.json")
        manifest = str(sim / "manifest.csv")
        assert main(["simulate", "--config", config, "--out-dir", str(sim)]) == 0
        assert main(["select-nu0", "--config", config, "--manifest", manifest,
                     "--out", report]) == 0
        assert main(["fit", "--config", config, "--manifest", manifest,
                     "--nu0-report", report, "--out", str(tmp_path / "fit.json")]) == 0
        assert [doc["kind"] for _, doc in written] == ["truth", "nu0_selection", "fit"]
        for path, doc in written:
            assert Path(path).read_bytes() == json_dumped(doc), doc["kind"]

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"a": [], "b": {}, "c": [[]], "d": [{}], "e": [[], [1], {"z": []}]},
            {3: "three", 1: "one", -2: "minus two"},
            {2.5: 1, float("nan"): 2, float("inf"): 3, -0.0: 4},
            {True: 1, False: 0},
            {None: [None]},
            {"x": [float("nan"), float("inf"), -float("inf"), 1e-300, -0.0, 5e-324, 0.1]},
            {"s": ["\u00e9", "\u2603", "\n\"\\\t", "\U0001f600", ""], "\u00fc": "\u00e9"},
            {"v": [None, True, False, 0, -1, 10**30, 1.5]},
            {"m": [[1.0, 2.0], [3.0, float("nan")]], "t": ((1, 2), (3,)), "n": {"k": {}}},
            # A list of dicts inside a list (the shape of nu0.json's
            # "levels", one level deeper), and ragged lists of lists.
            {"l": [[{"level": 2, "ebic": [1.5, None]}, {"b": 1, "a": [{}]}], []]},
            {"r": [[1.0], [], [2.0, [3.0, [4.0]]], [[[]]]], "u": [[{"z": 0}], [1]]},
        ],
    )
    def test_matches_json_dump(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        write_json(str(path), doc)
        assert path.read_bytes() == json_dumped(doc)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[-0.0, 0.0], [0.0, -0.0]]),
            np.array([[1.0, np.nan], [np.inf, -np.inf]]),
            (np.arange(12.0).reshape(3, 4) / 7.0).T,
            np.array([[0.1, 0.2, 0.3], [0.3, 0.1, 5e-324], [1e300, -2.5, 0.1]]),
            np.full((4, 4), 2.0 / 3.0),
            np.zeros((2, 0)),
            np.zeros((0, 3)),
            np.array([0.1, -0.0, 0.1]),
            np.arange(6).reshape(2, 3),
            np.array([[1.5, 2.5]], dtype=np.float32),
        ],
        ids=["signed-zeros", "non-finite", "transposed", "non-symmetric", "constant",
             "no-columns", "no-rows", "one-dimensional", "integer", "float32"],
    )
    def test_arrays_match_json_dump_of_their_lists(self, tmp_path, matrix):
        path = tmp_path / "doc.json"
        doc = {"m": matrix, "in_list": [matrix], "levels": [{"m": matrix}]}
        write_json(str(path), doc)
        listed = {"m": matrix.tolist(), "in_list": [matrix.tolist()],
                  "levels": [{"m": matrix.tolist()}]}
        assert path.read_bytes() == json_dumped(doc) == json_dumped(listed)

    @pytest.mark.parametrize("doc", [{(1, 2): 3}, {1: 0, "a": 0}, {"a": object()}])
    def test_refuses_what_json_dump_refuses(self, tmp_path, doc):
        with pytest.raises(TypeError):
            json_dumped(doc)
        with pytest.raises(TypeError):
            write_json(str(tmp_path / "doc.json"), doc)


class TestSimulateCommand:
    def test_writes_expected_files(self, sim_dir):
        for level in (1, 2, 3, 4):
            assert (sim_dir / f"data_level_{level}.csv").is_file()
        assert (sim_dir / "manifest.csv").is_file()
        assert (sim_dir / "truth.json").is_file()
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["kind"] == "truth"
        assert truth["p"] == 12
        assert len(truth["appearing"]) == 4
        assert len(truth["disappearing"]) == 4

    def test_reruns_are_byte_identical(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "sim.conf", *SIM_LINES)
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        for name in [f"data_level_{a}.csv" for a in (1, 2, 3, 4)] + [
            "manifest.csv",
            "truth.json",
        ]:
            assert (tmp_path / "out" / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_replicates_get_own_directories(self, tmp_path):
        config = write_config(
            tmp_path / "sim.conf",
            "p = 6",
            "n_base_edges = 6",
            "n_appearing = 2",
            "n_disappearing = 2",
            "n_per_group = 20",
            "replicates = 2",
        )
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        first = (tmp_path / "out" / "rep000" / "truth.json").read_bytes()
        second = (tmp_path / "out" / "rep001" / "truth.json").read_bytes()
        assert first != second

    def test_infeasible_magnitude_is_numerical_failure(self, tmp_path):
        config = write_config(
            tmp_path / "sim.conf",
            "p = 12",
            "n_base_edges = 60",
            "n_appearing = 3",
            "n_disappearing = 3",
            "n_per_group = 20",
            "partial_corr_magnitude = 0.6",
        )
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 4


class TestSelectAndFitPipeline:
    def test_select_nu0_report_schema(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "sel.conf", "nu0_grid = 0.03,0.06")
        report_path = str(tmp_path / "nu0.json")
        code = main([
            "select-nu0", "--config", config,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", report_path,
        ])
        assert code == 0
        doc = json.loads(open(report_path).read())
        assert doc["kind"] == "nu0_selection"
        assert doc["grid"] == [0.03, 0.06]
        assert sorted(int(a) for a in doc["selected"]) == [1, 2, 3, 4]
        for entry in doc["levels"]:
            assert len(entry["ebic"]) == 2
            assert all(v is None or math.isfinite(v) for v in entry["ebic"])
            assert entry["selected_nu0"] in (0.03, 0.06)

    def test_select_nu0_uses_the_configured_edge_count_prior(self, sim_dir, tmp_path):
        config = write_config(
            tmp_path / "sel.conf", "nu0_grid = 0.03,0.06", "expected_edges = 40",
            "sd_edges = 4",
        )
        report_path = str(tmp_path / "nu0.json")
        assert main([
            "select-nu0", "--config", config,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", report_path,
        ]) == 0
        doc = json.loads(open(report_path).read())
        n0, t0_sq = edge_count_prior(12, 40.0, 4.0)
        direct = line_search_nu0(
            load_grouped_dataset(str(sim_dir / "manifest.csv")).prepare(),
            1.0, Nu0SearchConfig(grid=(0.03, 0.06)), n0=n0, t0_sq=t0_sq,
        )
        for entry in doc["levels"]:
            assert entry["ebic"] == list(direct.ebic[entry["level"]])

    def test_fit_accepts_selection_report(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "sel.conf", "nu0_grid = 0.03,0.06")
        report_path = str(tmp_path / "nu0.json")
        main([
            "select-nu0", "--config", config,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", report_path,
        ])
        fit_config = write_config(tmp_path / "fit.conf", "max_iter = 200")
        fit_path = str(tmp_path / "fit.json")
        code = main([
            "fit", "--config", fit_config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", fit_path, "--nu0-report", report_path,
        ])
        assert code == 0
        doc = json.loads(open(fit_path).read())
        selected = json.loads(open(report_path).read())["selected"]
        assert doc["hyperparameters"]["nu0"] == selected

    def test_joint_fit_converges_and_reruns_identically(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04")
        first = tmp_path / "fit1.json"
        second = tmp_path / "fit2.json"
        for out in (first, second):
            code = main([
                "fit", "--config", config,
                "--manifest", str(sim_dir / "manifest.csv"), "--out", str(out),
            ])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["method"] == "joint"
        assert doc["converged"] is True
        assert doc["variable_names"][0] == "var0001"
        assert len(doc["elbo_trace"]) == doc["iterations"]

    def test_per_edge_fields_are_the_state_pairs_on_a_zero_diagonal(
        self, sim_dir, tmp_path, monkeypatch
    ):
        reports = []

        def recording(*args, **kwargs):
            reports.append(ordnet.fit(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "engine_fit", recording)
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04")
        fit_path = tmp_path / "fit.json"
        assert main([
            "fit", "--config", config,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", str(fit_path),
        ]) == 0
        doc = json.loads(fit_path.read_text())
        state = reports[0].final_state
        p = doc["p"]
        upper = np.triu_indices(p, 1)
        for name in ("zeta_mean", "beta_mean", "beta_var"):
            matrix = np.array(doc[name])
            pairs = getattr(state, f"{name}_pairs")
            assert matrix.shape == (p, p)
            assert np.diag(matrix).tobytes() == np.zeros(p).tobytes()
            assert matrix[upper].tobytes() == pairs.tobytes()
            assert matrix.T[upper].tobytes() == pairs.tobytes()

    def test_ssl_method_matches_direct_baseline(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.05", "method = ssl")
        fit_path = str(tmp_path / "fit_ssl.json")
        code = main([
            "fit", "--config", config,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", fit_path,
        ])
        assert code == 0
        doc = json.loads(open(fit_path).read())
        names, y = read_data_csv(str(sim_dir / "data_level_2.csv"))
        y = y - y.mean(axis=0)
        n0, t0_sq = edge_count_prior(12)
        direct = fit_ssl(y, 0.05, 1.0, 1.0, n0, t0_sq)
        assert np.array_equal(np.array(doc["ppi"]["2"]), direct.ppi)
        assert np.array_equal(np.array(doc["omega"]["2"]), direct.omega)

    def test_ssl_threads_match_serial_closely(self, sim_dir, tmp_path):
        serial_conf = write_config(tmp_path / "s1.conf", "nu0 = 0.05", "method = ssl", "threads = 1")
        thread_conf = write_config(tmp_path / "s2.conf", "nu0 = 0.05", "method = ssl", "threads = 3")
        paths = []
        for conf, name in ((serial_conf, "serial.json"), (thread_conf, "threads.json")):
            out = str(tmp_path / name)
            assert main([
                "fit", "--config", conf,
                "--manifest", str(sim_dir / "manifest.csv"), "--out", out,
            ]) == 0
            paths.append(out)
        assert Path(paths[1]).read_bytes() == Path(paths[0]).read_bytes()

    def test_threads_beyond_the_levels_ask_for_one_worker_per_level(
        self, sim_dir, tmp_path, monkeypatch
    ):
        requested = []

        class RecordingPool:
            """Runs the tasks in this process and records what the pool was asked for."""

            def __init__(self, max_workers, mp_context):
                requested.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, function, *args):
                future = concurrent.futures.Future()
                future.set_result(function(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        conf = write_config(tmp_path / "t.conf", "nu0 = 0.05", "method = ssl", "threads = 1000")
        assert main([
            "fit", "--config", conf,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", str(tmp_path / "fit.json"),
        ]) == 0
        assert requested == [(4, "fork")]

    def test_manifest_sample_count_mismatch(self, sim_dir, tmp_path):
        manifest = tmp_path / "manifest.csv"
        lines = (sim_dir / "manifest.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",999"
        manifest.write_text("\n".join(lines) + "\n")
        for name in sim_dir.glob("data_level_*.csv"):
            (tmp_path / name.name).write_bytes(name.read_bytes())
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04")
        code = main([
            "fit", "--config", config, "--manifest", str(manifest),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 3


@pytest.fixture(scope="module")
def joint_fit_doc(sim_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("fit")
    config = write_config(root / "fit.conf", "nu0 = 0.04")
    fit_path = root / "fit.json"
    assert main([
        "fit", "--config", config,
        "--manifest", str(sim_dir / "manifest.csv"), "--out", str(fit_path),
    ]) == 0
    return fit_path


class TestEvaluateCommand:
    def test_perfect_fit_scores_one(self, sim_dir, tmp_path):
        truth = json.loads((sim_dir / "truth.json").read_text())
        ppi = {}
        for a, edges in truth["adjacency"].items():
            m = np.zeros((truth["p"], truth["p"]))
            for i, j in edges:
                m[i, j] = m[j, i] = 1.0
            ppi[a] = m.tolist()
        fit_doc = {
            "schema_version": "1.0",
            "kind": "fit",
            "method": "joint",
            "levels": truth["levels"],
            "ppi": ppi,
        }
        fit_path = str(tmp_path / "fit.json")
        write_json(fit_path, fit_doc)
        out_csv = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--fit", fit_path, "--truth", str(sim_dir / "truth.json"),
            "--out", str(out_csv),
        ])
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "replicate,method,level,auc,precision,recall"
        assert len(rows) == 5
        for row in rows[1:]:
            replicate, method, level, auc, precision, recall = row.split(",")
            assert (replicate, method) == ("0", "joint")
            assert float(auc) == float(precision) == float(recall) == 1.0

    def test_append_accumulates_replicates(self, sim_dir, joint_fit_doc, tmp_path):
        out_csv = tmp_path / "metrics.csv"
        for replicate in (0, 1):
            code = main([
                "evaluate", "--fit", str(joint_fit_doc),
                "--truth", str(sim_dir / "truth.json"),
                "--out", str(out_csv), "--replicate", str(replicate), "--append",
            ])
            assert code == 0
        rows = out_csv.read_text().splitlines()
        assert len(rows) == 9
        assert {row.split(",")[0] for row in rows[1:]} == {"0", "1"}

    @pytest.mark.parametrize("start", ["", cli.METRICS_HEADER], ids=["empty", "no-newline"])
    def test_append_starts_rows_on_a_line_of_their_own(
        self, sim_dir, joint_fit_doc, tmp_path, start
    ):
        out_csv = tmp_path / "metrics.csv"
        out_csv.write_text(start)
        code = main([
            "evaluate", "--fit", str(joint_fit_doc), "--truth", str(sim_dir / "truth.json"),
            "--out", str(out_csv), "--append",
        ])
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == cli.METRICS_HEADER
        assert len(rows) == 5 and all(row.count(",") == 5 for row in rows)

    def test_append_refuses_a_file_with_another_header(
        self, sim_dir, joint_fit_doc, tmp_path, capsys
    ):
        out_csv = tmp_path / "metrics.csv"
        out_csv.write_text("rank,node,name,score\n1,0,var0001,0.5\n")
        code = main([
            "evaluate", "--fit", str(joint_fit_doc), "--truth", str(sim_dir / "truth.json"),
            "--out", str(out_csv), "--append",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(out_csv) in err and cli.METRICS_HEADER in err
        assert out_csv.read_text() == "rank,node,name,score\n1,0,var0001,0.5\n"

    def test_schema_version_rejected(self, sim_dir, tmp_path):
        doc = json.loads((sim_dir / "truth.json").read_text())
        doc["schema_version"] = "9.1"
        bad_truth = str(tmp_path / "truth.json")
        write_json(bad_truth, doc)
        fit_doc = {"schema_version": "1.0", "kind": "fit", "method": "joint",
                   "levels": doc["levels"], "ppi": {}}
        fit_path = str(tmp_path / "fit.json")
        write_json(fit_path, fit_doc)
        code = main([
            "evaluate", "--fit", fit_path, "--truth", bad_truth,
            "--out", str(tmp_path / "metrics.csv"),
        ])
        assert code == 3


class TestRankCommand:
    def test_writes_ranking_and_subnetworks(self, joint_fit_doc, tmp_path):
        prefix = str(tmp_path / "rank")
        code = main(["rank", "--fit", str(joint_fit_doc), "--k", "3",
                     "--out-prefix", prefix])
        assert code == 0
        nodes = (tmp_path / "rank_nodes.csv").read_text().splitlines()
        assert nodes[0] == "rank,node,name,score"
        top = nodes[1].split(",")
        assert top[2].startswith("var")
        scores = [float(line.split(",")[3]) for line in nodes[1:]]
        assert scores == sorted(scores, reverse=True)
        for sign in ("positive", "negative"):
            lines = (tmp_path / f"rank_{sign}_edges.csv").read_text().splitlines()
            assert lines[0] == "node_i,node_j,name_i,name_j,beta"
            assert len(lines) - 1 <= 3
            assert all(line.split(",")[2].startswith("var") for line in lines[1:])

    def test_default_k_caps_lists_at_fifty(self, joint_fit_doc, tmp_path):
        prefix = str(tmp_path / "rank")
        assert main(["rank", "--fit", str(joint_fit_doc), "--out-prefix", prefix]) == 0
        for sign in ("positive", "negative"):
            lines = (tmp_path / f"rank_{sign}_edges.csv").read_text().splitlines()
            assert len(lines) - 1 <= 50

    def test_ssl_fit_is_rejected_with_guidance(self, sim_dir, tmp_path, capsys):
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.05", "method = ssl")
        fit_path = str(tmp_path / "fit_ssl.json")
        main([
            "fit", "--config", config,
            "--manifest", str(sim_dir / "manifest.csv"), "--out", fit_path,
        ])
        capsys.readouterr()
        code = main(["rank", "--fit", fit_path, "--out-prefix", str(tmp_path / "rank")])
        assert code == 3
        assert "ols_beta_proxy" in capsys.readouterr().err

    def test_names_with_json_structure_survive(self, sim_dir, joint_fit_doc, tmp_path):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        name = 'a"]}[{\\b'
        doc["variable_names"][0] = name
        fit_path = tmp_path / "fit.json"
        write_json(str(fit_path), doc)
        assert main(["rank", "--fit", str(fit_path), "--out-prefix", str(tmp_path / "r")]) == 0
        rows = (tmp_path / "r_nodes.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[2] for row in rows if row.split(",")[1] == "0"] == [name]
        # evaluate skips variable_names, brackets and quotes in its strings included.
        assert main([
            "evaluate", "--fit", str(fit_path), "--truth", str(sim_dir / "truth.json"),
            "--out", str(tmp_path / "metrics.csv"),
        ]) == 0


@pytest.fixture(scope="module")
def ssl_fit_doc(sim_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("ssl")
    config = write_config(root / "fit.conf", "nu0 = 0.05", "method = ssl")
    fit_path = root / "fit_ssl.json"
    assert main([
        "fit", "--config", config,
        "--manifest", str(sim_dir / "manifest.csv"), "--out", str(fit_path),
    ]) == 0
    return fit_path


class TestFitDocumentLayout:
    """``evaluate`` and ``rank`` read only the fields they use, from any layout."""

    def _outputs(self, fit_path, truth_path, out_dir, capsys) -> dict[str, object]:
        out_dir.mkdir()
        codes = (
            main(["evaluate", "--fit", str(fit_path), "--truth", str(truth_path),
                  "--out", str(out_dir / "metrics.csv")]),
            main(["rank", "--fit", str(fit_path), "--k", "5",
                  "--out-prefix", str(out_dir / "rank")]),
        )
        outputs = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        return {"codes": codes, "stderr": capsys.readouterr().err, **outputs}

    @pytest.mark.parametrize("method", ["joint", "ssl"])
    def test_reindented_fit_gives_the_same_bytes(
        self, sim_dir, joint_fit_doc, ssl_fit_doc, tmp_path, capsys, method
    ):
        compact = joint_fit_doc if method == "joint" else ssl_fit_doc
        indented = tmp_path / "indented.json"
        indented.write_text(
            json.dumps(json.loads(compact.read_text(encoding="utf-8")), indent=4),
            encoding="utf-8",
        )
        truth = sim_dir / "truth.json"
        first = self._outputs(compact, truth, tmp_path / "compact", capsys)
        second = self._outputs(indented, truth, tmp_path / "indented", capsys)
        assert first["codes"] == ((0, 0) if method == "joint" else (0, 3))
        assert "metrics.csv" in first
        assert first == second

    def test_fit_cut_inside_omega_is_three(self, sim_dir, joint_fit_doc, tmp_path, capsys):
        text = joint_fit_doc.read_text(encoding="utf-8")
        start = text.index('"omega":')
        cut = tmp_path / "fit.json"
        cut.write_text(text[:start + (text.index(',"p":') - start) // 2], encoding="utf-8")
        outputs = self._outputs(cut, sim_dir / "truth.json", tmp_path / "out", capsys)
        assert outputs["codes"] == (3, 3)
        assert outputs["stderr"].count(f"{cut}: invalid JSON") == 2
        assert set(outputs) == {"codes", "stderr"}


class TestExitCodes:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_ridge_start_is_four(self, tmp_path, capsys):
        # Column sds from 10^-7.5 to 10^7.5: the all-slab ridge start
        # diverges, which is a numerical failure, not a LinAlgError.
        rng = np.random.default_rng(1)
        sds = np.logspace(-7.5, 7.5, 12)
        names = [f"x{k}" for k in range(12)]
        entries = []
        for a in (1, 2, 3):
            name = f"data_level_{a}.csv"
            write_data_csv(str(tmp_path / name), rng.standard_normal((60, 12)) * sds, names)
            entries.append((name, a, 60))
        write_manifest(str(tmp_path / "manifest.csv"), entries)
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04")
        code = main([
            "fit", "--config", config, "--manifest", str(tmp_path / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "ridge start diverged" in err and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_config_error_is_two(self, tmp_path):
        config = write_config(tmp_path / "bad.conf", "mystery = 1")
        assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2

    def test_missing_manifest_is_three(self, tmp_path):
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04")
        code = main([
            "fit", "--config", config, "--manifest", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize("command", ["fit", "select-nu0"])
    @pytest.mark.parametrize(
        "line", ["expected_edges = 2000", "sd_edges = -1", "sd_edges = nan", "sd_edges = 1000"]
    )
    def test_out_of_range_edge_count_prior_is_config_error(
        self, sim_dir, tmp_path, capsys, command, line
    ):
        # p = 12, so expected_edges must lie in (0, 66).
        config = write_config(tmp_path / "run.conf", "nu0 = 0.04", "nu0_grid = 0.03", line)
        code = main([
            command, "--config", config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["nu1 = 0", "nu1 = -1", "lambda_diag = -1", "t0_sq = -1", "nu1 = nan", "nu1 = inf",
         "lambda_diag = nan", "t0_sq = nan", "elbo_rel_tol = nan", "nu0_grid = 0.01,nan"],
    )
    def test_bad_select_nu0_setting_is_config_error(self, sim_dir, tmp_path, capsys, line):
        config = write_config(tmp_path / "sel.conf", line)
        code = main([
            "select-nu0", "--config", config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "nu0.json"),
        ])
        assert code == 2
        key = line.split(" = ")[0]
        assert ("grid values" if key == "nu0_grid" else key) in capsys.readouterr().err
        assert not (tmp_path / "nu0.json").exists()

    @pytest.mark.parametrize(
        "line",
        ["nu0 = nan", "nu0 = inf", "nu1 = nan", "nu1 = inf", "lambda_diag = nan",
         "n0 = nan", "t0_sq = nan", "alpha_sigma = inf", "elbo_rel_tol = nan"],
    )
    def test_bad_fit_setting_is_config_error(self, sim_dir, tmp_path, capsys, line):
        lines = (line,) if line.startswith("nu0 ") else ("nu0 = 0.04", line)
        config = write_config(tmp_path / "fit.conf", *lines)
        code = main([
            "fit", "--config", config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("target", ["data_level_2.csv", "manifest.csv"])
    def test_non_utf8_input_is_three(self, sim_dir, tmp_path, capsys, target):
        data_dir = tmp_path / "data"
        shutil.copytree(sim_dir, data_dir)
        manifest, path = data_dir / "manifest.csv", data_dir / target
        path.write_bytes(path.read_bytes() + b"\xff\n")
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04", "max_iter = 5")
        code = main([
            "fit", "--config", config, "--manifest", str(manifest),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_non_utf8_config_is_two(self, sim_dir, tmp_path, capsys):
        config = tmp_path / "fit.conf"
        config.write_bytes("nu0 = 0.04  # r\u00e9glage\n".encode("latin-1"))
        code = main([
            "fit", "--config", str(config), "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{config}: not UTF-8 text" in err and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_missing_nu0_is_config_error(self, sim_dir, tmp_path):
        config = write_config(tmp_path / "fit.conf", "max_iter = 50")
        code = main([
            "fit", "--config", config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--out-dir"), ("select-nu0", "--manifest"), ("select-nu0", "--out"),
         ("fit", "--manifest"), ("fit", "--out")],
    )
    def test_missing_file_flag_is_two(self, tmp_path, capsys, command, flag):
        config = write_config(tmp_path / "run.conf", "nu0 = 0.04")
        argv = {
            "simulate": ["--out-dir", str(tmp_path / "data")],
            "select-nu0": ["--manifest", "m.csv", "--out", str(tmp_path / "nu0.json")],
            "fit": ["--manifest", "m.csv", "--out", str(tmp_path / "fit.json")],
        }[command]
        at = argv.index(flag)
        del argv[at:at + 2]
        assert main([command, "--config", config, *argv]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [("rank", "--k", "-1"), ("evaluate", "--threshold", "2"),
         ("evaluate", "--threshold", "nan")],
    )
    def test_bad_flag_value_is_two(self, sim_dir, joint_fit_doc, tmp_path, capsys,
                                   command, flag, value):
        argv = {
            "rank": ["--out-prefix", str(tmp_path / "rank")],
            "evaluate": ["--truth", str(sim_dir / "truth.json"),
                         "--out", str(tmp_path / "metrics.csv")],
        }[command]
        code = main([command, "--fit", str(joint_fit_doc), *argv, flag, value])
        assert code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "doc, message",
        [([1, 2], "expected a JSON object"),
         ({"schema_version": "1.0", "kind": "fit", "method": "joint",
           "levels": [1, 2, 3, 4]}, "missing field 'ppi'"),
         ({"schema_version": "1.0", "kind": "fit", "method": "joint",
           "levels": [1, 2, 3, 4], "ppi": {str(a): [0.5, 0.5] for a in (1, 2, 3, 4)}},
          "malformed field 'ppi'")],
        ids=["not-an-object", "no-ppi", "ppi-not-square"],
    )
    def test_malformed_fit_document_is_three(self, sim_dir, tmp_path, capsys, doc, message):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "evaluate", "--fit", str(fit_path), "--truth", str(sim_dir / "truth.json"),
            "--out", str(tmp_path / "metrics.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(fit_path) in err and message in err

    @pytest.mark.parametrize(
        "change, message",
        [(lambda doc: doc["ppi"].update({"9": doc["ppi"].pop("4")}),
          "'ppi' has levels [1, 2, 3, 9], the document has [1, 2, 3, 4]"),
         (lambda doc: doc["ppi"].update({"2": [[0.5]]}),
          "'ppi' at level 2 is 1 x 1, expected 12 x 12"),
         (lambda doc: doc.update({"p": 13}), "p differs between")],
        ids=["ppi-levels", "ppi-one-by-one", "p-differs"],
    )
    def test_ppi_disagreeing_with_the_document_is_three(
        self, sim_dir, joint_fit_doc, tmp_path, capsys, change, message
    ):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        change(doc)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "evaluate", "--fit", str(fit_path), "--truth", str(sim_dir / "truth.json"),
            "--out", str(tmp_path / "metrics.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(fit_path) in err and message in err
        assert "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["fit.json"]

    @pytest.mark.parametrize(
        "change, message",
        [(lambda doc: doc["adjacency"].pop("4"),
          "'adjacency' has levels [1, 2, 3], the document has [1, 2, 3, 4]"),
         (lambda doc: doc["adjacency"].update({"5": doc["adjacency"].pop("4")}),
          "'adjacency' has levels [1, 2, 3, 5], the document has [1, 2, 3, 4]"),
         (lambda doc: doc["adjacency"]["3"].append([4, 12]),
          "truth has an edge outside the 12 nodes")],
        ids=["adjacency-lacks-a-level", "adjacency-other-level", "edge-outside"],
    )
    def test_truth_disagreeing_with_itself_is_three(
        self, sim_dir, joint_fit_doc, tmp_path, capsys, change, message
    ):
        doc = json.loads((sim_dir / "truth.json").read_text(encoding="utf-8"))
        change(doc)
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([
            "evaluate", "--fit", str(joint_fit_doc), "--truth", str(truth_path),
            "--out", str(tmp_path / "metrics.csv"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{truth_path}: {message}" in err
        assert "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["truth.json"]

    @pytest.mark.parametrize(
        "doc, message",
        [([1, 2], "expected a JSON object"),
         ({"schema_version": "1.0", "kind": "nu0_selection"}, "missing field 'selected'"),
         ({"schema_version": "1.0", "kind": "nu0_selection", "selected": {"1": "x"}},
          "malformed field 'selected'")],
        ids=["not-an-object", "no-selected", "non-numeric-selected"],
    )
    def test_malformed_nu0_report_is_three(self, sim_dir, tmp_path, capsys, doc, message):
        report_path = tmp_path / "nu0.json"
        report_path.write_text(json.dumps(doc), encoding="utf-8")
        config = write_config(tmp_path / "fit.conf", "max_iter = 5")
        code = main([
            "fit", "--config", config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"), "--nu0-report", str(report_path),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(report_path) in err and message in err

    @pytest.mark.parametrize(
        "names", [5, "abc", [1, 2, 3], None], ids=["int", "string", "not-strings", "null"]
    )
    def test_malformed_variable_names_is_three(self, joint_fit_doc, tmp_path, capsys, names):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        doc["variable_names"] = names
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["rank", "--fit", str(fit_path), "--out-prefix", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(fit_path) in err and "malformed field 'variable_names'" in err
        assert not list(tmp_path.glob("r_*"))

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "null"])
    @pytest.mark.parametrize("command, field", [("evaluate", "ppi"), ("rank", "beta_mean")])
    def test_non_finite_matrix_entry_is_three(self, sim_dir, joint_fit_doc, tmp_path, capsys,
                                              command, field, entry):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        matrix = doc[field]["2"] if field == "ppi" else doc[field]
        matrix[0][1] = matrix[1][0] = "ENTRY"
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc).replace('"ENTRY"', entry), encoding="utf-8")
        argv = {
            "evaluate": ["--truth", str(sim_dir / "truth.json"),
                         "--out", str(tmp_path / "metrics.csv")],
            "rank": ["--out-prefix", str(tmp_path / "r")],
        }[command]
        assert main([command, "--fit", str(fit_path), *argv]) == 3
        err = capsys.readouterr().err
        assert str(fit_path) in err and f"malformed field '{field}'" in err
        assert "non-finite entry" in err
        assert [path.name for path in tmp_path.iterdir()] == ["fit.json"]

    def test_missing_variable_names_falls_back(self, joint_fit_doc, tmp_path):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        del doc["variable_names"]
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc), encoding="utf-8")
        prefix = str(tmp_path / "r")
        assert main(["rank", "--fit", str(fit_path), "--k", "3", "--out-prefix", prefix]) == 0
        rows = (tmp_path / "r_nodes.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(row.split(",")[2].startswith("var") for row in rows)

    @pytest.mark.parametrize(
        "change, field, message",
        [(lambda doc: doc.update(variable_names=doc["variable_names"][:7]), "variable_names",
          "'variable_names' has 7 names for 12 nodes"),
         (lambda doc: doc.update(variable_names=doc["variable_names"] + ["extra"]),
          "variable_names", "'variable_names' has 13 names for 12 nodes"),
         (lambda doc: doc.update(beta_mean=[row[:11] for row in doc["beta_mean"][:11]]),
          "beta_mean", "'beta_mean' is 11 x 11, expected 12 x 12"),
         (lambda doc: doc.update(p=13), "beta_mean", "'beta_mean' is 12 x 12, expected 13 x 13")],
        ids=["seven-names", "thirteen-names", "beta-too-small", "p-too-large"],
    )
    def test_rank_fields_disagreeing_with_the_document_are_three(
        self, joint_fit_doc, tmp_path, capsys, change, field, message
    ):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        change(doc)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["rank", "--fit", str(fit_path), "--out-prefix", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(fit_path) in err and message in err and f"'{field}'" in err
        assert [path.name for path in tmp_path.iterdir()] == ["fit.json"]

    def test_empty_variable_names_fall_back(self, joint_fit_doc, tmp_path):
        doc = json.loads(joint_fit_doc.read_text(encoding="utf-8"))
        doc["variable_names"] = []
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc), encoding="utf-8")
        prefix = str(tmp_path / "r")
        assert main(["rank", "--fit", str(fit_path), "--k", "3", "--out-prefix", prefix]) == 0
        rows = (tmp_path / "r_nodes.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(row.split(",")[2].startswith("var") for row in rows)

    @pytest.mark.parametrize(
        "rename, message",
        [(lambda names: [names[0]] + names[:-1], "duplicate column name 'var0001'"),
         (lambda names: names[:3] + [""] + names[4:], "empty column name in column 4")],
        ids=["duplicate", "empty"],
    )
    def test_bad_data_header_is_three(self, sim_dir, tmp_path, capsys, rename, message):
        data = tmp_path / "data"
        data.mkdir()
        for source in sim_dir.glob("*.csv"):
            (data / source.name).write_bytes(source.read_bytes())
        csv = data / "data_level_2.csv"
        header, rest = csv.read_text(encoding="utf-8").split("\n", 1)
        csv.write_text(",".join(rename(header.split(","))) + "\n" + rest, encoding="utf-8")
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04", "max_iter = 5")
        code = main([
            "fit", "--config", config, "--manifest", str(data / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(csv) in err and message in err
        assert not (tmp_path / "fit.json").exists()

    def test_nu0_from_config_and_report_is_config_error(self, sim_dir, tmp_path, capsys):
        report_path = str(tmp_path / "nu0.json")
        write_json(report_path, {
            "schema_version": "1.0", "kind": "nu0_selection",
            "selected": {str(a): 0.04 for a in (1, 2, 3, 4)},
        })
        config = write_config(tmp_path / "fit.conf", "nu0 = 0.04", "max_iter = 5")
        code = main([
            "fit", "--config", config, "--manifest", str(sim_dir / "manifest.csv"),
            "--out", str(tmp_path / "fit.json"), "--nu0-report", report_path,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "'nu0'" in err and "--nu0-report" in err
        assert not (tmp_path / "fit.json").exists()
