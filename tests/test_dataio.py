import numpy as np
import pytest

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
