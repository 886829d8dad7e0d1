import csv
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegpipe import dataio, dsp
from eegpipe.errors import ConfigError, DataError


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadFeatureCsv:
    def test_three_class_label_mapping_is_lexicographic(self, tmp_path):
        p = write_csv(
            tmp_path / "f.csv",
            "f1,f2,label\n1,2,POSITIVE\n3,4,NEGATIVE\n5,6,NEUTRAL\n",
        )
        ds = dataio.load_feature_csv(p)
        assert ds.class_names == ["NEGATIVE", "NEUTRAL", "POSITIVE"]
        assert list(ds.labels) == [2, 0, 1]

    def test_single_row(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "f1,f2,label\n0,0,NEUTRAL\n")
        ds = dataio.load_feature_csv(p)
        assert ds.features.tolist() == [[0.0, 0.0]]
        assert list(ds.labels) == [0]
        assert ds.class_names == ["NEUTRAL"]
        assert ds.feature_names == ["f1", "f2"]

    def test_nan_cell_reports_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "f1,f2,label\n1,NaN,A\n")
        with pytest.raises(DataError, match=r"row 2.*'f2'"):
            dataio.load_feature_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            dataio.load_feature_csv(str(tmp_path / "absent.csv"))

    def test_duplicate_header(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "f1,f1,label\n1,2,A\n")
        with pytest.raises(DataError, match="duplicate"):
            dataio.load_feature_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "f1,f2\n1,2\n")
        with pytest.raises(DataError, match="label"):
            dataio.load_feature_csv(p)

    def test_empty_dataset(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "f1,label\n")
        with pytest.raises(DataError, match="no data rows"):
            dataio.load_feature_csv(p)

    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = dataio.Dataset(
            rng.normal(size=(7, 4)),
            rng.integers(0, 2, size=7),
            ["A", "B"],
            ["w", "x", "y", "z"],
        )
        path = tmp_path / "out.csv"
        dataio.save_feature_csv(ds, str(path))
        back = dataio.load_feature_csv(str(path))
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_mapping_stable_across_reload(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "f1,label\n1,B\n2,A\n3,B\n")
        a = dataio.load_feature_csv(p)
        b = dataio.load_feature_csv(p)
        assert a.class_names == b.class_names
        assert np.array_equal(a.labels, b.labels)


class TestRawRecordings:
    def make_raw(self, tmp_path, n=2):
        rng = np.random.default_rng(0)
        lines = ["file,label,sample_rate_hz,channels"]
        for i in range(n):
            rec = dataio.Recording(
                dataio.DEFAULT_CHANNELS, 256.0, rng.normal(size=(4, 32)), label=0
            )
            dataio.save_recording_csv(rec, str(tmp_path / f"r{i}.csv"))
            lines.append(f"r{i}.csv,POSITIVE,256,TP9;AF7;AF8;TP10")
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        return str(tmp_path / "manifest.csv")

    def test_loads_recordings_with_channels(self, tmp_path):
        manifest = self.make_raw(tmp_path)
        recs, class_names = dataio.load_raw_recordings(str(tmp_path), manifest)
        assert len(recs) == 2
        assert recs[0].channels == ["TP9", "AF7", "AF8", "TP10"]
        assert recs[0].n_channels == 4
        assert class_names == ["POSITIVE"]

    def test_empty_manifest(self, tmp_path):
        p = write_csv(tmp_path / "manifest.csv", "file,label,sample_rate_hz,channels\n")
        recs, names = dataio.load_raw_recordings(str(tmp_path), p)
        assert recs == [] and names == []

    def test_missing_file_reference(self, tmp_path):
        p = write_csv(
            tmp_path / "manifest.csv",
            "file,label,sample_rate_hz,channels\nnope.csv,A,256,TP9\n",
        )
        with pytest.raises(DataError, match="missing file"):
            dataio.load_raw_recordings(str(tmp_path), p)

    def test_short_manifest_row_names_its_line(self, tmp_path):
        manifest = self.make_raw(tmp_path)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("r0.csv,POSITIVE\n")
        with pytest.raises(DataError, match=r"line 4: no channels, sample_rate_hz cell"):
            dataio.load_raw_recordings(str(tmp_path), manifest)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_sample_names_file_and_line(self, tmp_path, cell):
        manifest = self.make_raw(tmp_path)
        path = tmp_path / "r1.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = f"0.5,{cell},0.5,0.5\n"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"r1\.csv: line 6: non-finite"):
            dataio.load_raw_recordings(str(tmp_path), manifest)

    def test_inconsistent_channels(self, tmp_path):
        rec = dataio.Recording(["TP9"], 256.0, np.zeros((1, 8)), label=0)
        dataio.save_recording_csv(rec, str(tmp_path / "a.csv"))
        dataio.save_recording_csv(rec, str(tmp_path / "b.csv"))
        p = write_csv(
            tmp_path / "manifest.csv",
            "file,label,sample_rate_hz,channels\na.csv,X,256,TP9\nb.csv,X,256,AF7\n",
        )
        with pytest.raises(DataError, match="inconsistent channel"):
            dataio.load_raw_recordings(str(tmp_path), p)


# Finite doubles, with the subnormals, the largest double and -0.0 drawn often.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, -0.0, 0.0]),
)


def matrices(max_cols=4):
    return st.integers(1, max_cols).flatmap(
        lambda k: st.lists(st.lists(FINITE, min_size=k, max_size=k), min_size=1, max_size=12))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def reference_csv(header, rows):
    """csv.writer with repr'd floats: the bytes both writers must produce."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def write_manifest(root, channels, name="r.csv"):
    path = os.path.join(root, "manifest.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"file,label,sample_rate_hz,channels\n{name},A,256,{';'.join(channels)}\n")
    return path


def raw_outcome(root, channels):
    """The loaded [samples, channels] bits, or the DataError text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recs, _ = dataio.load_raw_recordings(root, write_manifest(root, channels))
    except DataError as exc:
        return str(exc)
    return bits(recs[0].data.T)


def scan_raw_outcome(root, channels):
    try:
        return bits(dataio._scan_raw_csv(os.path.join(root, "r.csv"), channels))
    except DataError as exc:
        return str(exc)


def feature_outcome(load, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load(path, "label")
    except DataError as exc:
        return str(exc)
    return bits(ds.features), ds.labels.tolist(), ds.class_names, ds.feature_names


class TestCsvFormat:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_raw_roundtrip_is_bit_exact(self, rows):
        data = np.array(rows)
        channels = dataio.DEFAULT_CHANNELS[: data.shape[1]]
        with tempfile.TemporaryDirectory() as root:
            dataio.save_recording_csv(dataio.Recording(channels, 256.0, data.T),
                                      os.path.join(root, "r.csv"))
            assert raw_outcome(root, channels) == bits(data)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.sampled_from([["A", "B", "C"], ['say "hi"', "a,b", "plain"]]),
           st.data())
    def test_feature_roundtrip_is_bit_exact(self, rows, names, draw):
        data = np.array(rows)
        labels = draw.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        ds = dataio.Dataset(data, labels, names, [f"f{i}" for i in range(data.shape[1])])
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "f.csv")
            dataio.save_feature_csv(ds, path)
            back = dataio.load_feature_csv(path)
        assert bits(back.features) == bits(data)
        assert [back.class_names[k] for k in back.labels] == [names[k] for k in labels]
        assert back.feature_names == ds.feature_names

    def test_raw_bytes_match_csv_writer(self, tmp_path):
        data = np.array([[0.1, -0.0, 5e-324], [1.7976931348623157e308, -2.5e-310, 1e22]])
        rec = dataio.Recording(["TP9", "AF7"], 256.0, data)
        dataio.save_recording_csv(rec, str(tmp_path / "r.csv"))
        want = reference_csv(rec.channels, [[repr(float(v)) for v in row] for row in data.T])
        assert (tmp_path / "r.csv").read_bytes() == want

    @pytest.mark.parametrize("n_features", [0, 2])
    def test_feature_bytes_match_csv_writer(self, tmp_path, n_features):
        names = ["", "a,b", "line\nbreak", "plain", 'say "hi"']
        features = np.array([[0.1, -0.0], [5e-324, 1e22], [-3.0, 2.5]] * 2)[:, :n_features]
        labels = [1, 4, 0, 2, 3, 1]
        ds = dataio.Dataset(features, labels, names, ["w", "x"][:n_features])
        path = str(tmp_path / "f.csv")
        dataio.save_feature_csv(ds, path)
        want = reference_csv(ds.feature_names + ["label"],
                             [[repr(float(v)) for v in row] + [names[k]]
                              for row, k in zip(features, labels)])
        assert (tmp_path / "f.csv").read_bytes() == want
        back = dataio.load_feature_csv(path)
        assert [back.class_names[k] for k in back.labels] == [names[k] for k in labels]
        assert bits(back.features) == bits(features)

    def test_well_formed_files_skip_the_scan(self, tmp_path, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the row-by-row scan ran on a well-formed file")

        monkeypatch.setattr(dataio, "_scan_raw_csv", no_scan)
        monkeypatch.setattr(dataio, "_scan_feature_csv", no_scan)
        data, labels = dataio.synth_generate(2, 64, 256.0, seed=0)
        for i, x in enumerate(data):
            rec = dataio.Recording(dataio.DEFAULT_CHANNELS, 256.0, x)
            dataio.save_recording_csv(rec, str(tmp_path / f"r{i}.csv"))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("file,label,sample_rate_hz,channels\n" + "".join(
            f"r{i}.csv,{k},256,TP9;AF7;AF8;TP10\n" for i, k in enumerate(labels)))
        recs, _ = dataio.load_raw_recordings(str(tmp_path), str(manifest))
        assert [bits(r.data) for r in recs] == [bits(x) for x in data]
        ds = dataio.Dataset(data[:, 0, :8], labels, ["x", "y", "z"], [f"s{i}" for i in range(8)])
        dataio.save_feature_csv(ds, str(tmp_path / "f.csv"))
        assert bits(dataio.load_feature_csv(str(tmp_path / "f.csv")).features) == bits(ds.features)


# (case, file text, expected: the loaded rows, or a fragment of the DataError)
RAW_CASES = [
    ("blank line", "a,b\r\n1,2\r\n\r\n3,4\r\n", "line 3: 0 cells, header has 2"),
    ("only a blank line", "a,b\r\n\r\n", "line 2: 0 cells, header has 2"),
    ("a column too many", "a,b\r\n1,2,3\r\n4,5,6\r\n", "line 2: 3 cells, header has 2"),
    ("trailing comma", "a,b\r\n1,2,\r\n", "line 2: could not convert string to float: ''"),
    ("hash in a cell", "a,b\r\n1,2#3\r\n", "could not convert string to float: '2#3'"),
    ("LF-only", "a,b\n1,2\n3,4\n", [[1, 2], [3, 4]]),
    ("CR-only", "a,b\r1,2\r3,4\r", [[1, 2], [3, 4]]),
    ("quoted numbers", 'a,b\r\n"1",2\r\n', [[1, 2]]),
    ("underscore", "a,b\r\n1_0,2\r\n", [[10, 2]]),
    ("padded cells", "a,b\r\n 1 ,\t2 \r\n", [[1, 2]]),
    ("header only", "a,b\r\n", "no samples"),
    ("ragged row", "a,b\r\n1,2\r\n3\r\n", "line 3: 1 cells, header has 2"),
    ("non-numeric cell", "a,b\r\n1,x\r\n", "line 2: could not convert string to float: 'x'"),
    ("nan cell", "a,b\r\n1,2\r\n1,nan\r\n", "line 3: non-finite sample"),
    ("inf cell", "a,b\r\ninf,1\r\n", "line 2: non-finite sample"),
    ("file separator pad", "a,b\r\n1\x1c,2\r\n", "could not convert string to float: '1\\x1c'"),
    ("form feed pad", "a,b\r\n1\x0c,2\r\n", [[1, 2]]),
    ("form feed in a cell", "a,b\r\n1,2\x0c3,4\r\n", "could not convert string to float: '2\\x0c3'"),
    ("header not the manifest's", "a,c\r\n1,2\r\n", "header ['a', 'c'] does not match manifest"),
    ("quote opening a header field", 'a,"b\r\n1,2\r\n3,4\r\n', "does not match manifest channels"),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in RAW_CASES], ids=[c[0] for c in RAW_CASES])
def test_raw_loader_matches_the_row_scan(tmp_path, text, expected):
    (tmp_path / "r.csv").write_bytes(text.encode("utf-8"))
    got = raw_outcome(str(tmp_path), ["a", "b"])
    assert got == scan_raw_outcome(str(tmp_path), ["a", "b"])
    if isinstance(expected, str):
        assert expected in got
    else:
        assert got == bits(expected)


FEATURE_CASES = [
    ("blank line", "f1,f2,label\r\n1,2,A\r\n\r\n3,4,B\r\n", "row 3 has 0 cells, expected 3"),
    ("only a blank line", "f1,f2,label\r\n\r\n", "row 2 has 0 cells, expected 3"),
    ("trailing comma", "f1,f2,label\r\n1,2,A,\r\n", "row 2 has 4 cells, expected 3"),
    ("hash in a cell", "f1,f2,label\r\n1,2#,A\r\n", "value '2#' at row 2, column 'f2'"),
    ("LF-only", "f1,f2,label\n1,2,A\n3,4,B\n", ([[1, 2], [3, 4]], [0, 1], ["A", "B"])),
    ("quoted numbers", 'f1,f2,label\r\n"1",2,A\r\n', ([[1, 2]], [0], ["A"])),
    ("underscore", "f1,f2,label\r\n1_0,2,A\r\n", ([[10, 2]], [0], ["A"])),
    ("padded cells", "f1,f2,label\r\n 1 ,\t2 ,A\r\n", ([[1, 2]], [0], ["A"])),
    ("header only", "f1,f2,label\r\n", "no data rows"),
    ("ragged row", "f1,f2,label\r\n1,A\r\n", "row 2 has 2 cells, expected 3"),
    ("non-numeric cell", "f1,f2,label\r\nx,2,A\r\n", "value 'x' at row 2, column 'f1'"),
    ("nan cell", "f1,f2,label\r\n1,2,A\r\nnan,2,A\r\n", "value 'nan' at row 3, column 'f1'"),
    ("inf cell", "f1,f2,label\r\n1,-inf,A\r\n", "value '-inf' at row 2, column 'f2'"),
    ("quoted label", 'f1,f2,label\r\n1,2,"a,b"\r\n', ([[1, 2]], [0], ["a,b"])),
    ("no feature column", "label\r\nB\r\nA\r\n", ([[], []], [1, 0], ["A", "B"])),
    ("label first", "label,f1,f2\r\nB,1,2\r\nA,3,4\r\n", ([[1, 2], [3, 4]], [1, 0], ["A", "B"])),
    ("file separator pad", "f1,f2,label\r\n1\x1c,2,A\r\n", "value '1\\x1c' at row 2"),
    ("form feed in a label", "f1,f2,label\r\n1,2,A\x0c3,4,B\r\n", "row 2 has 5 cells"),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in FEATURE_CASES],
                         ids=[c[0] for c in FEATURE_CASES])
def test_feature_loader_matches_the_cell_scan(tmp_path, text, expected):
    path = str(tmp_path / "f.csv")
    (tmp_path / "f.csv").write_bytes(text.encode("utf-8"))
    got = feature_outcome(dataio.load_feature_csv, path)
    assert got == feature_outcome(dataio._scan_feature_csv, path)
    if isinstance(expected, str):
        assert expected in got
    else:
        rows, labels, names = expected
        assert got[:3] == (bits(rows), labels, names)



class TestWindowing:
    def rec(self, n_samples, n_ch=1):
        return np.arange(n_ch * n_samples, dtype=float).reshape(n_ch, n_samples)

    def test_offsets(self):
        w = dataio.window_recording(self.rec(10), 4, 3)
        assert w.shape == (3, 1, 4)
        assert w[:, 0].tolist() == [[0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9]]

    def test_full_window(self):
        w = dataio.window_recording(self.rec(10), 10, 3)
        assert len(w) == 1 and w[0, 0].tolist() == list(range(10))

    def test_unit_window(self):
        assert len(dataio.window_recording(self.rec(5), 1, 1)) == 5

    @pytest.mark.parametrize("n,w,h", [(17, 5, 3), (64, 64, 1), (33, 8, 8), (100, 7, 13)])
    def test_count_formula(self, n, w, h):
        eps = dataio.window_recording(self.rec(n), w, h)
        assert len(eps) == (n - w) // h + 1

    def test_channels_stay_aligned_in_a_view(self):
        data = self.rec(12, n_ch=3)
        w = dataio.window_recording(data, 4, 4)
        assert w.shape == (3, 3, 4)
        assert np.shares_memory(w, data)
        for k in range(3):
            assert np.array_equal(w[k], data[:, 4 * k : 4 * k + 4])

    def test_bad_window_or_hop(self):
        with pytest.raises(ConfigError):
            dataio.window_recording(self.rec(10), 11, 1)
        with pytest.raises(ConfigError):
            dataio.window_recording(self.rec(10), 4, 0)


def make_dataset(per_class_counts, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(per_class_counts)])
    features = rng.normal(size=(len(labels), 3))
    # make every row unique so identity tracking works
    features[:, 0] = np.arange(len(labels))
    names = [chr(ord("A") + i) for i in range(len(per_class_counts))]
    return dataio.Dataset(features, labels, names, ["id", "f1", "f2"])


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        ds = make_dataset([100, 100, 100])
        spec = dataio.SplitSpec(0.6, 0.2, 0.2, seed=0)
        tr, va, te = dataio.stratified_split(ds, spec)
        assert (tr.n_examples, va.n_examples, te.n_examples) == (180, 60, 60)
        for part in (tr, va, te):
            counts = np.bincount(part.labels, minlength=3)
            assert np.all(counts == counts[0])

    def test_seeded_determinism(self):
        ds = make_dataset([20, 20, 20])
        spec = dataio.SplitSpec(0.6, 0.2, 0.2, seed=7)
        a = dataio.stratified_split(ds, spec)
        b = dataio.stratified_split(ds, spec)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.labels, pb.labels)
            assert np.array_equal(pa.features, pb.features)

    def test_largest_remainder_on_uneven_classes(self):
        # oracle: enumerate the rounding rule per class independently
        def apportion(n, fracs):
            ideal = [f * n for f in fracs]
            counts = [int(v) for v in ideal]
            rem = n - sum(counts)
            order = sorted(range(3), key=lambda i: (-(ideal[i] - counts[i]), i))
            for i in order[:rem]:
                counts[i] += 1
            return counts

        fracs = (0.6, 0.2, 0.2)
        expected = {c: apportion(n, fracs) for c, n in enumerate([10, 10, 9])}
        ds = make_dataset([10, 10, 9])
        tr, va, te = dataio.stratified_split(ds, dataio.SplitSpec(*fracs, seed=1))
        for c in range(3):
            got = [int(np.sum(p.labels == c)) for p in (tr, va, te)]
            assert got == expected[c]
            for s, frac in enumerate(fracs):
                n_c = [10, 10, 9][c]
                assert abs(got[s] - frac * n_c) <= 1.0

    def test_disjoint_and_covering(self):
        ds = make_dataset([11, 13, 9], seed=5)
        tr, va, te = dataio.stratified_split(ds, dataio.SplitSpec(0.5, 0.25, 0.25, seed=3))
        ids = np.concatenate([p.features[:, 0] for p in (tr, va, te)])
        assert sorted(ids.tolist()) == list(range(ds.n_examples))

    def test_class_too_small(self):
        ds = make_dataset([10, 2])
        with pytest.raises(DataError, match="at least 3"):
            dataio.stratified_split(ds, dataio.SplitSpec(0.6, 0.2, 0.2))

    def test_empty_split_rejected(self):
        ds = make_dataset([3])
        with pytest.raises(DataError, match="empty split"):
            dataio.stratified_split(ds, dataio.SplitSpec(0.6, 0.2, 0.2))

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            dataio.SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ConfigError):
            dataio.SplitSpec(1.0, 0.5, -0.5)

    def test_unstratified_covers(self):
        ds = make_dataset([15, 15])
        tr, va, te = dataio.stratified_split(
            ds, dataio.SplitSpec(0.6, 0.2, 0.2, seed=2, stratified=False)
        )
        assert tr.n_examples + va.n_examples + te.n_examples == 30


class TestSynthGenerate:
    def test_counts(self):
        data, labels = dataio.synth_generate(5, 128, 256.0, seed=0)
        assert len(data) == len(labels) == 15
        assert sorted(np.bincount(labels).tolist()) == [5, 5, 5]

    def test_determinism(self):
        a = dataio.synth_generate(2, 64, 256.0, seed=9)
        b = dataio.synth_generate(2, 64, 256.0, seed=9)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_class1_alpha_beats_beta(self):
        data, labels = dataio.synth_generate(4, 512, 256.0, seed=1)
        psd = dsp.welch_psd(data[labels == 1, 0], 256.0, segment_len=256)
        alpha = dsp.band_power(psd, 8.0, 13.0)
        beta = dsp.band_power(psd, 13.0, 30.0)
        assert len(alpha) == 4 and np.all(alpha > beta)

    def test_precondition(self):
        with pytest.raises(ConfigError):
            dataio.synth_generate(0, 128, 256.0, seed=0)

    def test_shape(self):
        data, labels = dataio.synth_generate(1, 100, 200.0, seed=0)
        assert data.shape == (3, len(dataio.DEFAULT_CHANNELS), 100)
        assert labels.tolist() == [0, 1, 2]

    def test_rng_draw_order(self):
        # per epoch, class by class: frequency, channel phases, then the noise block
        data, _ = dataio.synth_generate(2, 32, 256.0, seed=3)
        rng = np.random.default_rng(3)
        t = np.arange(32) / 256.0
        for i, (lo, hi) in enumerate([(4.0, 7.0), (4.0, 7.0), (10.0, 13.0)]):
            freq = rng.uniform(lo, hi)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
            noise = rng.standard_normal((4, 32))
            tone = 3.0 * np.sin(2.0 * np.pi * freq * t[None, :] + phases[:, None])
            assert np.array_equal(data[i], noise + tone)


def test_write_split_sidecar(tmp_path):
    ds = make_dataset([10, 10, 10])
    spec = dataio.SplitSpec(0.6, 0.2, 0.2, seed=4)
    parts = dataio.stratified_split(ds, spec)
    sidecar = dataio.write_split(*parts, spec, str(tmp_path))
    assert sidecar["seed"] == 4
    assert sidecar["counts_per_class"]["train"] == {"A": 6, "B": 6, "C": 6}
    back = dataio.load_feature_csv(str(tmp_path / "train.csv"))
    assert back.n_examples == 18
