"""Unit tests for dataset synthesis, partitioning, noise, and file formats."""

import contextlib
import os
import re
import struct

import numpy as np
import pytest

from focusfl.data import (
    DATASET_MAGIC,
    Dataset,
    NoiseSpec,
    PartitionPlan,
    inject_noise,
    load_binary,
    load_csv,
    partition,
    save_binary,
    save_csv,
    synth_blobs,
)
from focusfl.errors import ConfigurationError, InvalidInputError
from focusfl.federation import load_model
from focusfl.learner import ArchSpec, SgdConfig, accuracy, client_update, init_params


def rows_as_sorted_tuples(d):
    rows = [tuple(d.features[i]) + (int(d.labels[i]),) for i in range(d.n)]
    return sorted(rows)


class TestDataset:
    def test_validates_shapes_and_label_range(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros(4), np.zeros(4, dtype=int), 2)
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 2]), 2)
        with pytest.raises(InvalidInputError):
            Dataset(np.full((2, 2), np.inf), np.zeros(2, dtype=int), 2)
        with pytest.raises(InvalidInputError, match="labels must lie in"):  # beyond int64, checked before the cast
            Dataset(np.zeros((2, 2)), [1e300, 0.0], 2)
        # The binary container stores the class count as a u32, so no larger count is accepted.
        with pytest.raises(InvalidInputError, match="num_classes must be at most 4294967295"):
            Dataset(np.zeros((1, 1)), np.array([1e20]), 10**21)
        with pytest.raises(InvalidInputError, match="num_classes must be at most 4294967295"):
            Dataset(np.zeros((1, 1)), np.array([0]), 2**32)
        with pytest.raises(InvalidInputError, match="features must have at least one column"):
            Dataset(np.zeros((3, 0)), np.zeros(3, dtype=int), 2)

    def test_arrays_are_frozen_copies(self):
        features = np.zeros((3, 2))
        labels = np.zeros(3, dtype=int)
        d = Dataset(features, labels, 2)
        features[0, 0] = 5.0
        assert d.features[0, 0] == 0.0
        with pytest.raises(ValueError):
            d.labels[0] = 1

    def test_subset_picks_rows(self):
        d = Dataset(np.arange(10.0).reshape(5, 2), np.array([0, 1, 0, 1, 0]), 2)
        s = d.subset([4, 0])
        assert s.n == 2
        np.testing.assert_array_equal(s.features, [[8.0, 9.0], [0.0, 1.0]])
        np.testing.assert_array_equal(s.labels, [0, 0])


class TestSynthBlobs:
    def test_shapes_balance_and_determinism(self):
        d = synth_blobs(num_classes=3, samples_per_class=50, dim=5, separation=4.0, seed=9)
        assert d.n == 150 and d.dim == 5 and d.num_classes == 3
        counts = np.bincount(d.labels, minlength=3)
        np.testing.assert_array_equal(counts, [50, 50, 50])
        d2 = synth_blobs(num_classes=3, samples_per_class=50, dim=5, separation=4.0, seed=9)
        assert np.array_equal(d.features, d2.features)
        d3 = synth_blobs(num_classes=3, samples_per_class=50, dim=5, separation=4.0, seed=10)
        assert not np.array_equal(d.features, d3.features)

    def test_class_means_sit_at_the_requested_separation(self):
        """Empirical class means are pairwise ~`separation` apart (unit-variance
        noise over n=500 keeps the estimate within a few hundredths)."""
        d = synth_blobs(num_classes=4, samples_per_class=500, dim=6, separation=5.0, seed=3)
        means = np.array([d.features[d.labels == c].mean(axis=0) for c in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                dist = np.linalg.norm(means[i] - means[j])
                assert abs(dist - 5.0) < 0.3, f"classes {i},{j}: {dist}"

    def test_unit_covariance_within_classes(self):
        d = synth_blobs(num_classes=2, samples_per_class=2000, dim=3, separation=8.0, seed=1)
        block = d.features[d.labels == 0]
        cov = np.cov(block.T)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.12)

    def test_rejects_dim_too_small_for_equidistant_means(self):
        with pytest.raises(ConfigurationError):
            synth_blobs(num_classes=4, samples_per_class=10, dim=2, separation=3.0, seed=0)
        # dim == num_classes - 1 is the minimum and must work
        d = synth_blobs(num_classes=4, samples_per_class=10, dim=3, separation=3.0, seed=0)
        assert d.dim == 3

    def test_rejects_nonpositive_separation_and_counts(self):
        with pytest.raises(ConfigurationError):
            synth_blobs(2, 10, 3, separation=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            synth_blobs(2, 0, 3, separation=1.0, seed=0)
        with pytest.raises(ConfigurationError):
            synth_blobs(1, 10, 3, separation=1.0, seed=0)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("seed", (2, 10, 3, 3.0, 1.5)),
            ("separation", (2, 10, 3, None, 0)),
            ("separation", (2, 10, 3, "x", 0)),
            ("separation", (2, 10, 3, float("nan"), 0)),
            ("num_classes", (2.5, 10, 3, 3.0, 0)),
            ("samples_per_class", (2, "10", 3, 3.0, 0)),
            ("num_classes", (2**32, 1, 2**32, 3.0, 0)),
            ("dim", (2**32 - 1, 1, 2**32 - 1, 3.0, 0)),
        ],
        ids=[
            "seed-1.5", "separation-None", "separation-str", "separation-nan", "num_classes-2.5", "samples-str",
            "num_classes-above-u32", "arrays-too-big",
        ],
    )
    def test_bad_arguments_are_configuration_errors(self, name, args):
        with pytest.raises(ConfigurationError, match=name):
            synth_blobs(*args)

    def test_integral_float_seed_draws_like_the_int(self):
        a, b = synth_blobs(2, 10, 3, 3.0, seed=1.0), synth_blobs(2, 10, 3, 3.0, seed=1)
        assert np.array_equal(a.features, b.features)

    def test_well_separated_blobs_are_learnable(self):
        """A softmax regression trained on very separated blobs should be
        near-perfect; this ties the generator to the learner end to end."""
        d = synth_blobs(num_classes=3, samples_per_class=80, dim=4, separation=10.0, seed=21)
        m = init_params(ArchSpec(4, (), 3), seed=0)
        trained = client_update(m, d, SgdConfig(learning_rate=0.5, local_steps=300))
        assert accuracy(trained, d) >= 0.98


class TestPartition:
    def test_sizes_test_first_then_benchmark_then_clients(self):
        """1250 rows at test_fraction 0.2 leave a 1000-row pool; benchmark
        takes 0.2 of the pool and four clients split the rest equally."""
        d = synth_blobs(num_classes=5, samples_per_class=250, dim=6, separation=3.0, seed=0)
        plan = PartitionPlan(num_clients=4, benchmark_fraction=0.2, test_fraction=0.2, seed=1)
        clients, bench, test = partition(d, plan)
        assert test.n == 250
        assert bench.n == 200
        assert [c.n for c in clients] == [200, 200, 200, 200]

    def test_union_of_parts_is_the_original_dataset(self):
        d = synth_blobs(num_classes=3, samples_per_class=40, dim=4, separation=3.0, seed=5)
        clients, bench, test = partition(d, PartitionPlan(3, 0.25, 0.25, seed=7))
        combined = []
        for part in list(clients) + [bench, test]:
            combined.extend(rows_as_sorted_tuples(part))
        assert sorted(combined) == rows_as_sorted_tuples(d)

    def test_parts_are_disjoint(self):
        d = synth_blobs(num_classes=2, samples_per_class=60, dim=3, separation=3.0, seed=2)
        clients, bench, test = partition(d, PartitionPlan(2, 0.2, 0.2, seed=3))
        seen = set()
        for part in list(clients) + [bench, test]:
            for row in rows_as_sorted_tuples(part):
                assert row not in seen
                seen.add(row)

    def test_client_proportions_respected_within_rounding(self):
        d = synth_blobs(num_classes=2, samples_per_class=300, dim=3, separation=3.0, seed=4)
        plan = PartitionPlan(3, 0.2, 0.25, seed=0, client_proportions=(0.5, 0.3, 0.2))
        clients, bench, test = partition(d, plan)
        total = sum(c.n for c in clients)
        for c, p in zip(clients, (0.5, 0.3, 0.2)):
            assert abs(c.n - p * total) <= 1

    def test_same_seed_same_split(self):
        d = synth_blobs(num_classes=2, samples_per_class=50, dim=3, separation=3.0, seed=8)
        a = partition(d, PartitionPlan(2, 0.2, 0.2, seed=11))
        b = partition(d, PartitionPlan(2, 0.2, 0.2, seed=11))
        assert np.array_equal(a[1].features, b[1].features)
        assert np.array_equal(a[2].features, b[2].features)
        for ca, cb in zip(a[0], b[0]):
            assert np.array_equal(ca.features, cb.features)

    def test_empty_part_is_rejected(self):
        d = Dataset(np.zeros((10, 2)), np.zeros(10, dtype=int), 2)
        with pytest.raises(ConfigurationError):
            partition(d, PartitionPlan(num_clients=8, benchmark_fraction=0.5, test_fraction=0.5))

    def test_plan_validation(self):
        with pytest.raises(InvalidInputError):
            PartitionPlan(0, 0.2, 0.2)
        with pytest.raises(InvalidInputError):
            PartitionPlan(2, 0.0, 0.2)
        with pytest.raises(InvalidInputError):
            PartitionPlan(2, 0.2, 1.0)
        with pytest.raises(InvalidInputError):
            PartitionPlan(2, 0.2, 0.2, client_proportions=(0.9, 0.2))
        with pytest.raises(InvalidInputError):
            PartitionPlan(2, 0.2, 0.2, client_proportions=(1.0,))


class TestInjectNoise:
    def test_fraction_zero_changes_nothing(self):
        d = synth_blobs(2, 50, 3, 3.0, seed=0)
        noisy = inject_noise(d, NoiseSpec(kind="randomize", fraction=0.0, seed=5))
        assert np.array_equal(noisy.labels, d.labels)

    def test_randomize_full_fraction_redraws_over_all_classes(self):
        """With C=4 a redrawn label can coincide with the old one, so about
        1/4 of rows keep their label even at fraction 1."""
        d = synth_blobs(4, 200, 4, 3.0, seed=1)
        noisy = inject_noise(d, NoiseSpec(kind="randomize", fraction=1.0, seed=7))
        differ = float(np.mean(noisy.labels != d.labels))
        assert 0.70 <= differ <= 0.80
        # redrawn labels cover every class
        assert set(np.unique(noisy.labels)) == {0, 1, 2, 3}

    def test_pairwise_flip_changes_exactly_the_selected_fraction(self):
        d = synth_blobs(2, 100, 3, 3.0, seed=2)
        spec = NoiseSpec(kind="pairwise_flip", fraction=0.3, seed=9, flip_map={0: 1, 1: 0})
        noisy = inject_noise(d, spec)
        assert int(np.sum(noisy.labels != d.labels)) == round(0.3 * d.n)

    def test_pairwise_flip_full_fraction_flips_every_label(self):
        d = synth_blobs(3, 40, 3, 3.0, seed=3)
        spec = NoiseSpec(kind="pairwise_flip", fraction=1.0, seed=0, flip_map={0: 1, 1: 2, 2: 0})
        noisy = inject_noise(d, spec)
        assert np.all(noisy.labels != d.labels)
        lookup = np.array([1, 2, 0])
        np.testing.assert_array_equal(noisy.labels, lookup[d.labels])

    def test_original_dataset_is_untouched(self):
        d = synth_blobs(2, 50, 3, 3.0, seed=4)
        before = d.labels.copy()
        inject_noise(d, NoiseSpec(kind="randomize", fraction=1.0, seed=1))
        assert np.array_equal(d.labels, before)

    def test_same_seed_same_corruption(self):
        d = synth_blobs(3, 60, 3, 3.0, seed=5)
        spec = NoiseSpec(kind="randomize", fraction=0.5, seed=13)
        a = inject_noise(d, spec)
        b = inject_noise(d, spec)
        assert np.array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="shuffle", fraction=0.5)
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="randomize", fraction=1.5)
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="randomize", fraction=0.5, target_clients=(1, 1))
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="pairwise_flip", fraction=0.5)  # no map
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="pairwise_flip", fraction=0.5, flip_map={0: 0})  # fixed point
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="pairwise_flip", fraction=0.5, flip_map={0: 1, 1: 2})  # not a permutation
        with pytest.raises(InvalidInputError):
            NoiseSpec(kind="randomize", fraction=0.5, flip_map={0: 1, 1: 0})
        for seed in (-1, 2.5):
            with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
                NoiseSpec(kind="randomize", fraction=0.5, seed=seed)

    def test_flip_map_outside_class_range_is_rejected(self):
        d = synth_blobs(2, 20, 3, 3.0, seed=6)
        spec = NoiseSpec(kind="pairwise_flip", fraction=1.0, flip_map={2: 3, 3: 2})
        with pytest.raises(InvalidInputError):
            inject_noise(d, spec)


class TestValueRules:
    def test_integral_float_client_count_partitions_like_the_int(self):
        d = synth_blobs(2, 40, 3, 3.0, seed=8)
        by_float = partition(d, PartitionPlan(2.0, 0.25, 0.25, seed=4))
        by_int = partition(d, PartitionPlan(2, 0.25, 0.25, seed=4))
        for a, b in zip((*by_float[0], *by_float[1:]), (*by_int[0], *by_int[1:])):
            assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize(
        "name, make",
        [
            ("num_clients", lambda: PartitionPlan(float("nan"), 0.2, 0.2)),
            ("seed", lambda: NoiseSpec(kind="randomize", fraction=0.5, seed=None)),
            ("target_clients", lambda: NoiseSpec(kind="randomize", fraction=0.5, target_clients=(0.5,))),
            ("flip_map", lambda: NoiseSpec(kind="pairwise_flip", fraction=0.5, flip_map={0.5: 1, 1.7: 0})),
            ("target_clients", lambda: NoiseSpec(kind="randomize", fraction=0.5, target_clients=0)),
            ("flip_map", lambda: NoiseSpec(kind="pairwise_flip", fraction=0.5, flip_map=[1, 0])),
            ("labels", lambda: Dataset(np.zeros((2, 2)), ["a", "b"], 2)),
            ("labels", lambda: Dataset(np.zeros((2, 2)), [np.nan, 1.0], 2)),
            ("labels", lambda: Dataset(np.zeros((2, 2)), [np.inf, 1.0], 2)),
        ],
        ids=[
            "num_clients-nan", "noise-seed-None", "target_clients-0.5", "flip_map-fractional",
            "target_clients-int", "flip_map-list", "labels-str", "labels-nan", "labels-inf",
        ],
    )
    def test_non_integers_are_rejected_by_name(self, name, make):
        with pytest.raises(InvalidInputError, match=f"{name} must be"):
            make()

    @pytest.mark.parametrize(
        "name, make",
        [
            ("benchmark_fraction", lambda: PartitionPlan(2, "0.2", 0.2)),
            ("test_fraction", lambda: PartitionPlan(2, 0.2, None)),
            ("noise fraction", lambda: NoiseSpec(kind="randomize", fraction=None)),
            ("noise fraction", lambda: NoiseSpec(kind="randomize", fraction="x")),
            ("client_proportions", lambda: PartitionPlan(2, 0.2, 0.2, client_proportions=5)),
        ],
        ids=[
            "benchmark_fraction-str", "test_fraction-None", "noise-fraction-None", "noise-fraction-str",
            "client_proportions-int",
        ],
    )
    def test_non_reals_are_rejected_by_name(self, name, make):
        with pytest.raises(InvalidInputError, match=f"{name} must be"):
            make()

    @pytest.mark.parametrize(
        "call",
        [
            lambda r, w: load_csv(r),
            lambda r, w: load_binary(r),
            lambda r, w: load_model(r),
            lambda r, w: save_csv(Dataset(np.ones((1, 2)), [0], 2), w),
            lambda r, w: save_binary(Dataset(np.ones((1, 2)), [0], 2), w),
        ],
        ids=["load_csv", "load_binary", "load_model", "save_csv", "save_binary"],
    )
    def test_codecs_refuse_a_file_descriptor(self, call):
        """``open`` would take an int path as a descriptor and close it on exit."""
        r, w = os.pipe()
        os.set_blocking(r, False)  # a loader that reads the pipe fails instead of waiting
        try:
            with pytest.raises(InvalidInputError, match="path must be a file path"):
                call(r, w)
            os.fstat(r)
            os.fstat(w)
        finally:
            for fd in (r, w):
                with contextlib.suppress(OSError):
                    os.close(fd)

    def test_fractions_are_stored_as_float(self):
        plan = PartitionPlan(2, np.float32(0.25), np.float32(0.5))
        fractions = (plan.benchmark_fraction, plan.test_fraction)
        fractions += tuple(NoiseSpec(kind="randomize", fraction=f).fraction for f in (1, np.float32(0.5)))
        assert [type(f) for f in fractions] == [float] * 4


class TestCsvFormat:
    def test_round_trip_is_exact(self, tmp_path):
        d = synth_blobs(3, 25, 4, 3.0, seed=12)
        path = tmp_path / "blobs.csv"
        save_csv(d, str(path))
        back = load_csv(str(path), num_classes=3)
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.labels, d.labels)
        assert back.num_classes == 3

    def test_header_names_every_feature_column(self, tmp_path):
        d = Dataset(np.array([[1.5, -2.25]]), np.array([1]), 2)
        path = tmp_path / "tiny.csv"
        save_csv(d, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "f0,f1,label"

    def test_bytes_are_pinned(self, tmp_path):
        d = Dataset(np.array([[0.1, -2.5], [1e-17, 1.0 / 3.0], [-0.0, 1e22]]), np.array([1, 0, 1]), 2)
        path = tmp_path / "pinned.csv"
        save_csv(d, str(path))
        assert path.read_bytes() == (
            b"f0,f1,label\n0.1,-2.5,1\n1e-17,0.3333333333333333,0\n-0.0,1e+22,1\n"
        )

    def test_blank_lines_and_crlf_line_ends_are_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"f0,f1,label\r\n0.5,-1.25,1\r\n\r\n2.0,3.0,0\r\n")
        d = load_csv(str(path))
        np.testing.assert_array_equal(d.features, [[0.5, -1.25], [2.0, 3.0]])
        np.testing.assert_array_equal(d.labels, [1, 0])
        assert d.num_classes == 2

    def test_num_classes_inferred_from_labels_when_absent(self, tmp_path):
        d = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 2]), 5)
        path = tmp_path / "labels.csv"
        save_csv(d, str(path))
        assert load_csv(str(path)).num_classes == 3
        # A label beyond int64 is refused before any cast, not wrapped.
        path.write_text("f0,label\n0.0,100000000000000000000\n1.0,0\n")
        with pytest.raises(InvalidInputError, match=r"labels must lie in \[0, 4294967295\)"):
            load_csv(str(path))

    def test_malformed_rows_are_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0\n")
        with pytest.raises(InvalidInputError):
            load_csv(str(path))
        path.write_text("f0,oops,label\n1.0,2.0,0\n")
        with pytest.raises(InvalidInputError):
            load_csv(str(path))
        path.write_text("f0,f1,label\n1.0,x,0\n")
        with pytest.raises(InvalidInputError):
            load_csv(str(path))
        # A bad header with a bad row reports the row.
        path.write_text("f0,oops,label\n1.0,x,0\n")
        with pytest.raises(InvalidInputError, match="malformed row"):
            load_csv(str(path))
        # A content error names the file, as the binary loader's do.
        path.write_text("f0,label\n1.0,7\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: labels must lie in [0, 2), got range [7.0, 7.0]")):
            load_csv(str(path), 2)


class TestBinaryFormat:
    def test_round_trip_is_exact(self, tmp_path):
        d = synth_blobs(4, 30, 5, 3.0, seed=14)
        path = tmp_path / "blobs.bin"
        save_binary(d, str(path))
        back = load_binary(str(path))
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.labels, d.labels)
        assert back.num_classes == 4
        # The largest class count a Dataset accepts fits the container's u32.
        save_binary(Dataset(np.ones((1, 1)), np.array([2**32 - 2]), 2**32 - 1), str(path))
        back = load_binary(str(path))
        assert back.num_classes == 2**32 - 1 and back.labels.tolist() == [2**32 - 2]

    def test_file_starts_with_magic(self, tmp_path):
        d = Dataset(np.ones((2, 2)), np.array([0, 1]), 2)
        path = tmp_path / "magic.bin"
        save_binary(d, str(path))
        assert path.read_bytes()[:8] == DATASET_MAGIC == b"FOCUSDS1"

    def test_bad_magic_and_truncation_are_rejected(self, tmp_path):
        d = Dataset(np.ones((3, 2)), np.array([0, 1, 0]), 2)
        path = tmp_path / "data.bin"
        save_binary(d, str(path))
        blob = path.read_bytes()
        (tmp_path / "badmagic.bin").write_bytes(b"NOTMAGIC" + blob[8:])
        with pytest.raises(InvalidInputError):
            load_binary(str(tmp_path / "badmagic.bin"))
        (tmp_path / "short.bin").write_bytes(blob[:-4])
        with pytest.raises(InvalidInputError):
            load_binary(str(tmp_path / "short.bin"))
        # A content error names the file, as a truncation error does.
        (tmp_path / "label7.bin").write_bytes(blob[:-12] + struct.pack("<3I", 7, 7, 7))
        with pytest.raises(InvalidInputError, match=re.escape(f"{tmp_path / 'label7.bin'}: labels must lie in [0, 2), got range [7, 7]")):
            load_binary(str(tmp_path / "label7.bin"))
