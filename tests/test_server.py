"""Server aggregation, gram estimation and the closed-form update."""

import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from stsa.client import ClientShard, UploadPayload, extract_payload
from scipy.linalg.lapack import dtrttf

from stsa.core import (
    _SYMMETRY_BLOCK,
    SpatialStatistics,
    apply_map,
    local_statistics,
    make_random_map,
    unpack_gram,
)
from stsa.errors import DimensionError, EstimationError, ProtocolError
from stsa.prng import ChaChaStream
from stsa.runner import _fold_stage
from stsa.server import (
    MIN_COUNT,
    TemporalState,
    estimate_gram,
    spatial_aggregate,
    temporal_aggregate,
    update_classifier,
)


def record(corr, freq, gram=None):
    return SpatialStatistics(
        gram=gram, corr=np.asarray(corr, dtype=np.float64), label_freq=np.asarray(freq)
    )


def rfp(a):
    """The gram format, RFP, of the symmetric matrix whose upper triangle is square ``a``'s."""
    return dtrttf(a.T, transr="N", uplo="L")[0]


def estimate(records, classes):
    """The gram estimate alone, as ``estimate_gram`` adds it into zeros."""
    m = records[0].feature_dim
    out = np.zeros(m * (m + 1) // 2)
    estimate_gram(records, classes, out)
    return out


def fold(state, gram, corr, classes):
    """Fold one stage into ``state`` in place: ``gram`` and ``corr`` as a one-client upload.

    This is how the runner folds the oracle's pooled statistics.
    """
    rec = record(corr, np.zeros(len(classes), dtype=np.int64), gram=gram)
    _fold_stage(state, [UploadPayload(client_id=0, task_id=1, records=(rec,))], classes, 1)


def full_payloads_from_partition(rows_per_client, labels_per_client, rmap, classes):
    payloads = []
    for k, (rows, labels) in enumerate(zip(rows_per_client, labels_per_client)):
        shard = ClientShard(client_id=k, task_id=1, features=rows, labels=labels)
        payloads.append(extract_payload(shard, rmap, classes, mode="full"))
    return payloads


class TestSpatialAggregate:
    def setup_method(self):
        self.rmap = make_random_map(3, 4, 8)
        self.classes = (0, 1, 2)
        rng = np.random.default_rng(7)
        self.raw = rng.normal(size=(30, 4))
        self.labels = rng.integers(0, 3, size=30).astype(np.int64)

    def test_single_payload_passthrough(self):
        payloads = full_payloads_from_partition([self.raw], [self.labels], self.rmap, self.classes)
        acc = TemporalState.initial(8).gram_acc
        corr, _ = spatial_aggregate(payloads, self.classes, 1, acc)
        # The upload's RFP gram passes into the empty state exactly, in its layout.
        assert np.array_equal(acc, payloads[0].records[0].gram)
        assert np.array_equal(corr, payloads[0].records[0].corr)

    def test_partition_matches_pooled_statistics(self):
        # Centralized equivalence: statistics of a K-way partition sum to the
        # pooled statistics of the whole dataset.
        cuts = [(0, 7), (7, 19), (19, 30)]
        payloads = full_payloads_from_partition(
            [self.raw[a:b] for a, b in cuts],
            [self.labels[a:b] for a, b in cuts],
            self.rmap,
            self.classes,
        )
        acc = TemporalState.initial(8).gram_acc
        corr, _ = spatial_aggregate(payloads, self.classes, 3, acc)
        pooled = local_statistics(apply_map(self.rmap, self.raw), self.labels, self.classes)
        assert np.allclose(unpack_gram(acc, 8), unpack_gram(pooled.gram, 8), rtol=1e-12)
        assert np.allclose(corr, pooled.corr, rtol=1e-12)

    def payloads(self, mode):
        cuts = [(0, 10), (10, 20), (20, 30)]
        return [
            extract_payload(
                ClientShard(
                    client_id=k, task_id=1, features=self.raw[a:b], labels=self.labels[a:b]
                ),
                self.rmap,
                self.classes,
                mode=mode,
                k_d=2,
                seed=k,
            )
            for k, (a, b) in enumerate(cuts)
        ]

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_out_of_order_upload_is_rejected(self, mode):
        # Uploads come in client order; the first one ahead of the client
        # due names that client as missing, whatever follows it.
        payloads = self.payloads(mode)
        # In order, the uploads are accepted, and efficient-mode records are
        # kept in (client id, record position) order.
        _, records = spatial_aggregate(payloads, self.classes, 3, np.zeros(36))
        if mode == "efficient":
            in_order = [rec for p in payloads for rec in p.records]
            assert len(records) == 6
            assert all(a is b for a, b in zip(records, in_order))
        p0, _, p2 = payloads
        with pytest.raises(ProtocolError, match="missing upload from client 0"):
            spatial_aggregate([p2, p0, p2], self.classes, 3, np.zeros(36))
        for order in itertools.permutations(range(3)):
            if order == (0, 1, 2):
                continue
            due = next(k for k, client in enumerate(order) if client != k)
            with pytest.raises(ProtocolError, match=f"missing upload from client {due};"):
                spatial_aggregate([payloads[k] for k in order], self.classes, 3, np.zeros(36))

    def test_values_below_the_diagonal_of_an_upload_are_not_read(self):
        # A gram upload holds one triangle of the symmetric gram, in RFP; a
        # client whose whole matrix holds anything below the diagonal packs
        # its upper triangle into the same upload and leaves the sums
        # bit-identical.
        clean_acc = np.zeros(36)
        clean_corr, _ = spatial_aggregate(self.payloads("full"), self.classes, 3, clean_acc)
        rng = np.random.default_rng(3)
        dirty = []
        for p in self.payloads("full"):
            records = []
            for rec in p.records:
                whole = unpack_gram(rec.gram, 8) + np.tril(rng.normal(size=(8, 8)), -1)
                records.append(replace(rec, gram=rfp(whole)))
            dirty.append(replace(p, records=tuple(records)))
        acc = np.zeros(36)
        corr, _ = spatial_aggregate(dirty, self.classes, 3, acc)
        assert np.array_equal(acc, clean_acc)
        assert np.array_equal(corr, clean_corr)

    def test_stage_gram_is_the_unpacked_sum_of_the_packed_uploads(self):
        # Each RFP upload is added into the state's RFP gram elementwise in
        # client order, ((state + u0) + u1) + u2.
        payloads = self.payloads("full")
        start = np.random.default_rng(5).normal(size=36)
        acc = start.copy()
        spatial_aggregate(payloads, self.classes, 3, acc)
        total = start.copy()
        for p in payloads:
            total += p.records[0].gram
        assert np.array_equal(acc, total)

    def test_upload_of_another_dimension_is_rejected_before_any_add(self):
        # The accumulator packs one dimension; an upload of another, or a
        # whole (M, M) accumulator, fails before anything is added.
        payloads = self.payloads("full")
        for acc in (np.ones(28), np.ones(45), np.ones((8, 8))):
            before = acc.copy()
            with pytest.raises(ProtocolError, match="uploaded feature dimension 8"):
                spatial_aggregate(payloads, self.classes, 3, acc)
            assert np.array_equal(acc, before)
        with pytest.raises(ProtocolError, match="uploaded feature dimension 8"):
            spatial_aggregate(self.payloads("efficient"), self.classes, 3, np.ones(28))

    def test_peak_memory_is_below_one_triangle_beyond_the_uploads(self):
        # Each upload's gram is added straight into the caller's accumulator,
        # so a stage of K uploads allocates its corr sum and no gram of its
        # own: a stage sum would be one RFP gram here.
        m, k = 400, 4
        rmap = make_random_map(3, 4, m)
        rng = np.random.default_rng(1)
        payloads = []
        for client in range(k):
            labels = rng.integers(0, 3, size=50).astype(np.int64)
            shard = ClientShard(
                client_id=client, task_id=1, features=rng.normal(size=(50, 4)), labels=labels
            )
            payloads.append(extract_payload(shard, rmap, self.classes, mode="full"))
        acc = np.zeros(m * (m + 1) // 2)
        tracemalloc.start()
        try:
            spatial_aggregate(payloads, self.classes, k, acc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < acc.nbytes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_at_any_packed_position_is_rejected(self, value):
        # Diagonal and off-diagonal entries alike, first and last included.
        for pos in range(36):
            payloads = self.payloads("full")
            first = payloads[2].records[0]
            bad = first.gram.copy()
            bad[pos] = value
            payloads[2] = replace(payloads[2], records=(replace(first, gram=bad),))
            with pytest.raises(ProtocolError, match="non-finite gram entries"):
                spatial_aggregate(payloads, self.classes, 3, np.zeros(36))

    def test_an_unpacked_gram_cannot_be_uploaded(self):
        # The whole (M, M) layout fails when the record is built, before
        # any upload reaches the server.
        rec = self.payloads("full")[0].records[0]
        with pytest.raises(DimensionError, match="packed triangle"):
            replace(rec, gram=unpack_gram(rec.gram, 8))
        with pytest.raises(DimensionError, match="packed triangle"):
            replace(rec, gram=rec.gram[:-1])

    def test_full_mode_keeps_no_client_grams(self):
        _, records = spatial_aggregate(self.payloads("full"), self.classes, 3, np.zeros(36))
        assert records == []

    def test_client_gram_is_freed_once_folded(self):
        # Payloads produced in client order: client k's gram must be dead
        # before client k + 2's payload is made.
        refs = []
        alive = []

        def stream():
            for k in range(6):
                if k >= 2:
                    alive.append(refs[k - 2]() is not None)
                rows = slice(5 * k, 5 * k + 5)
                shard = ClientShard(
                    client_id=k, task_id=1, features=self.raw[rows], labels=self.labels[rows]
                )
                payload = extract_payload(shard, self.rmap, self.classes, mode="full")
                refs.append(weakref.ref(payload.records[0].gram))
                yield payload

        spatial_aggregate(stream(), self.classes, 6, np.zeros(36))
        assert alive == [False] * 4

    def test_duplicate_upload_rejected(self):
        payloads = self.payloads("full")
        with pytest.raises(ProtocolError, match="duplicate upload from client 1"):
            spatial_aggregate(payloads + [payloads[1]], self.classes, 3, np.zeros(36))

    @pytest.mark.parametrize("kept", [(0, 2), (1, 2)])
    def test_missing_upload_rejected(self, kept):
        payloads = self.payloads("efficient")
        missing = ({0, 1, 2} - set(kept)).pop()
        with pytest.raises(ProtocolError, match=f"missing upload from client {missing}"):
            spatial_aggregate([payloads[k] for k in kept], self.classes, 3, np.zeros(36))

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_missing_last_upload_rejected(self, mode):
        payloads = self.payloads(mode)
        with pytest.raises(ProtocolError, match="missing upload from client 2"):
            spatial_aggregate(payloads[:2], self.classes, 3, np.zeros(36))

    def test_payload_must_carry_one_valid_client_id(self):
        def upload(client_id):
            records = (record(np.ones((8, 3)), [1, 1, 1]),)
            return UploadPayload(client_id=client_id, task_id=1, records=records)

        with pytest.raises(ProtocolError, match="client id -1 is out of range for 3 clients"):
            spatial_aggregate([upload(-1)], self.classes, 3, np.zeros(36))
        with pytest.raises(ProtocolError, match="client id 3 is out of range for 3 clients"):
            spatial_aggregate([upload(3)], self.classes, 3, np.zeros(36))

    @pytest.mark.parametrize(
        "mode, field, value, what",
        [
            ("full", "gram", np.nan, "gram entries"),
            ("full", "corr", np.inf, "corr entries"),
            ("efficient", "corr", -np.inf, "corr entries"),
            ("efficient", "label_freq", np.nan, "label frequencies"),
        ],
    )
    def test_non_finite_upload_rejected(self, mode, field, value, what):
        payloads = self.payloads(mode)
        first, *rest = payloads[1].records
        bad = getattr(first, field).astype(np.float64)  # a float copy, so NaN fits
        bad.flat[0] = value
        payloads[1] = replace(payloads[1], records=(replace(first, **{field: bad}), *rest))
        with pytest.raises(ProtocolError, match=f"non-finite {what}"):
            spatial_aggregate(payloads, self.classes, 3, np.zeros(36))

    @pytest.mark.parametrize(
        "mode, breach, message",
        [
            ("full", "two records", "has 2 records; full mode sends exactly one"),
            ("full", "negative count", "client 1 uploaded a negative label count"),
            ("efficient", "negative count", "client 1 uploaded a negative label count"),
            ("full", "float counts", "client 1 uploaded float64 label counts"),
            ("full", "int64 gram", "client 1 uploaded a gram of dtype int64; it must be float64"),
            ("efficient", "float32 corr", "client 1 uploaded a corr of dtype float32"),
            ("full", "bool client id", "client id False is not an integer"),
            ("efficient", "float client id", "client id 1.0 is not an integer"),
        ],
    )
    def test_upload_that_breaks_the_contract_is_rejected(self, mode, breach, message):
        # Each breach is a well-formed record otherwise, so only the
        # upload contract can catch it.
        payloads = self.payloads(mode)
        upload = payloads[1]
        first, *rest = upload.records
        counts = first.label_freq
        changed = {
            "two records": lambda: {"records": (first, first)},
            "negative count": lambda: {
                "records": (replace(first, label_freq=counts - 10), *rest)
            },
            "float counts": lambda: {
                "records": (replace(first, label_freq=counts.astype(float)),)
            },
            "int64 gram": lambda: {
                "records": (replace(first, gram=first.gram.astype(np.int64)),)
            },
            "float32 corr": lambda: {
                "records": (replace(first, corr=first.corr.astype(np.float32)), *rest)
            },
            "bool client id": lambda: {"client_id": False},
            "float client id": lambda: {"client_id": 1.0},
        }[breach]()
        payloads[1] = replace(upload, **changed)
        if breach == "bool client id":
            payloads = payloads[1:2]  # False would pass as client 0
        with pytest.raises(ProtocolError, match=message):
            spatial_aggregate(payloads, self.classes, len(payloads), np.zeros(36))

    def test_upload_of_feature_dimension_zero_is_rejected(self):
        # An empty RFP gram and corr make a valid record, but no stage
        # can be summed or solved at M = 0.
        rec = record(np.zeros((0, 1)), np.array([3]), gram=np.zeros(0))
        upload = UploadPayload(client_id=0, task_id=1, records=(rec,))
        with pytest.raises(ProtocolError, match="feature dimension 0"):
            spatial_aggregate([upload], [0], 1, np.zeros(0))

    def test_noised_efficient_counts_may_be_any_finite_float(self):
        # Noise can push an efficient-mode count below zero or off the
        # integers; the estimator skips non-positive counts.
        payloads = self.payloads("efficient")
        first, *rest = payloads[1].records
        noised = first.label_freq.astype(float) - np.array([0.3, 5.5, 0.0])
        payloads[1] = replace(payloads[1], records=(replace(first, label_freq=noised), *rest))
        payloads[2] = replace(payloads[2], client_id=np.int64(2))
        _, records = spatial_aggregate(payloads, self.classes, 3, np.zeros(36))
        assert records[2].label_freq is noised

    def test_mixed_modes_rejected(self):
        # The first record sets the stage's mode; a record of the other
        # mode, in a later payload or in the same one, is rejected.
        full = self.payloads("full")
        eff = self.payloads("efficient")
        gram = full[0].records[0].gram
        one_payload = (eff[0].records[0], replace(eff[0].records[1], gram=gram))
        cases = [
            [full[0], eff[1], full[2]],  # a full stage receives gram-less records
            [eff[0], full[1], eff[2]],  # an efficient stage receives a gram
            [replace(eff[0], records=one_payload), eff[1], eff[2]],
        ]
        for uploads in cases:
            with pytest.raises(
                ProtocolError, match="uploads mix full-mode and efficient-mode records"
            ):
                spatial_aggregate(uploads, self.classes, 3, np.zeros(36))

    def test_mismatched_dimension_rejected(self):
        small = make_random_map(3, 4, 6)
        shard = ClientShard(client_id=0, task_id=1, features=self.raw[:5], labels=self.labels[:5])
        a = extract_payload(shard, self.rmap, self.classes, mode="full")
        b = extract_payload(shard, small, self.classes, mode="full")
        with pytest.raises(ProtocolError, match="mixed mapped dimensions"):
            spatial_aggregate([a, b], self.classes, 2, np.zeros(36))

    def test_mixed_task_ids_rejected(self):
        shard1 = ClientShard(client_id=0, task_id=1, features=self.raw[:5], labels=self.labels[:5])
        shard2 = ClientShard(client_id=1, task_id=2, features=self.raw[5:9], labels=self.labels[5:9])
        a = extract_payload(shard1, self.rmap, self.classes, mode="full")
        b = extract_payload(shard2, self.rmap, self.classes, mode="full")
        with pytest.raises(ProtocolError, match="mixed task ids"):
            spatial_aggregate([a, b], self.classes, 2, np.zeros(36))

    def test_empty_payload_list_rejected(self):
        with pytest.raises(ProtocolError):
            spatial_aggregate([], self.classes, 3, np.zeros(36))
        with pytest.raises(ProtocolError, match="at least one client"):
            spatial_aggregate([], self.classes, 0, np.zeros(36))


class TestEstimateGram:
    def test_identical_single_sample_records_are_exact(self):
        # Every record holds one class-0 sample with the same feature v, so
        # the second term vanishes (n = K) and the estimate is K * v v^T.
        v = np.array([2.0, 1.0])
        records = [record(np.array([v]).T, [1]) for _ in range(3)]
        g = unpack_gram(estimate(records, [0]), 2)
        assert np.array_equal(g, 3.0 * np.outer(v, v))

    def test_hand_evaluated_two_record_case(self):
        # Record 1 holds (1,0) and (0,2); record 2 holds (3,1) and (1,1).
        # Scalar evaluation of the estimator gives [[13, 5], [5, 4]].
        r1 = record(np.array([[1.0], [2.0]]), [2])
        r2 = record(np.array([[4.0], [2.0]]), [2])
        g = unpack_gram(estimate([r1, r2], [0]), 2)
        oracle = scalar_estimator_oracle(
            cols=[[1.0, 2.0], [4.0, 2.0]], counts=[2.0, 2.0]
        )
        assert np.allclose(g, oracle, rtol=1e-14)
        assert np.allclose(g, np.array([[13.0, 5.0], [5.0, 4.0]]), rtol=1e-14)

    def test_monte_carlo_unbiasedness(self):
        # Mean over resamples approaches n (mu mu^T + Sigma) per class.
        m, k, n, trials = 4, 10, 100, 2000
        stream = ChaChaStream(515)
        mu = stream.standard_normal(m)
        sigma_diag = 0.5 + stream.random(m)
        acc = np.zeros((m, m))
        acc2 = np.zeros((m, m))
        for _ in range(trials):
            x = mu + np.sqrt(sigma_diag) * stream.standard_normal(n * m).reshape(n, m)
            recs = []
            for j, rows in enumerate(np.array_split(np.arange(n), k)):
                recs.append(record(np.array([x[rows].sum(axis=0)]).T, [rows.size]))
            g = unpack_gram(estimate(recs, [0]), m)
            acc += g
            acc2 += g * g
        mean = acc / trials
        se = np.sqrt((acc2 / trials - mean**2) / trials)
        expected = n * (np.outer(mu, mu) + np.diag(sigma_diag))
        z = np.abs(mean - expected) / se
        assert (z <= 3.0).mean() >= 0.99

    def test_absent_class_contributes_nothing(self):
        r1 = record(np.array([[1.0, 0.0], [2.0, 0.0]]), [2, 0])
        r2 = record(np.array([[4.0, 0.0], [2.0, 0.0]]), [2, 0])
        g = unpack_gram(estimate([r1, r2], [0, 1]), 2)
        assert np.allclose(g, np.array([[13.0, 5.0], [5.0, 4.0]]), rtol=1e-14)

    def test_single_holder_class_raises(self):
        r1 = record(np.array([[1.0, 1.0], [2.0, 1.0]]), [2, 1])
        r2 = record(np.array([[4.0, 0.0], [2.0, 0.0]]), [2, 0])
        with pytest.raises(EstimationError, match="class 9"):
            estimate([r1, r2], [0, 9])

    def test_output_is_exactly_symmetric(self):
        # The estimate is an RFP gram, which unpacks to an exactly symmetric
        # matrix.
        stream = ChaChaStream(99)
        records = [
            record(stream.standard_normal(6).reshape(3, 2), [3, 2])
            for _ in range(4)
        ]
        g = estimate(records, [0, 1])
        assert g.shape == (6,)
        whole = unpack_gram(g, 3)
        assert np.array_equal(whole, whole.T)

    def test_noised_nonpositive_counts_are_excluded(self):
        # A record whose noised count went negative must not contribute.
        good1 = record(np.array([[1.0], [2.0]]), [2.0])
        good2 = record(np.array([[4.0], [2.0]]), [2.0])
        ghost = record(np.array([[100.0], [100.0]]), [-0.004])
        with_ghost = estimate([good1, good2, ghost], [0])
        without = estimate([good1, good2], [0])
        assert np.array_equal(with_ghost, without)

    # The estimate is written in strips of _SYMMETRY_BLOCK = 256 rows. M = 40
    # is one partial strip; the last strip ends before, on and after the
    # block at M = 255, 256, 257, and partway through a third at M = 600.
    @pytest.mark.parametrize(
        "m, seed",
        [pytest.param(40, seed, id=str(seed)) for seed in range(6)]
        + [
            pytest.param(m, seed, id=f"M{m}-{seed}")
            for m in (255, 256, 257, 600)
            for seed in range(6)
        ],
    )
    def test_matches_the_per_class_formula(self, m, seed):
        # Noised float counts: positive ones contribute, non-positive ones do
        # not, tiny positive ones are floored at MIN_COUNT, and the last
        # class is absent from every record.
        rng = np.random.default_rng(seed)
        c_t = int(rng.integers(2, 11))
        k = int(rng.integers(3, 13))
        counts = rng.uniform(1.0, 30.0, size=(k, c_t))
        counts[rng.random((k, c_t)) < 0.3] = rng.uniform(-2.0, 0.0)
        counts[:2, :-1] = rng.uniform(1.0, 30.0, size=(2, c_t - 1))
        counts[2, 0] = 3e-7
        counts[:, -1] = -rng.random(k)
        records = []
        for j in range(k):
            corr = rng.normal(size=(m, c_t)) * np.sqrt(np.maximum(counts[j], MIN_COUNT))
            records.append(record(corr, counts[j]))

        g = estimate(records, list(range(c_t)))
        assert g.shape == (m * (m + 1) // 2,)
        g = unpack_gram(g, m)
        expected = per_class_estimator(records, c_t, m)
        assert np.linalg.norm(g - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_peak_memory_is_the_triangle_and_three_factor_arrays(self):
        # U holds one row per contributing column and one per class total:
        # R = 50 * 10 + 10 rows. The gram is the caller's, so the peak is U
        # and one strip's work: its scaled columns L (R x b), its product
        # (b x M), and the strip's mask and the masked add's buffers (under
        # b x M together). A gram of the estimator's own would not fit.
        m, k, c = 600, 50, 10
        rng = np.random.default_rng(0)
        records = [record(rng.normal(size=(m, c)), rng.integers(1, 20, size=c)) for _ in range(k)]
        rows = k * c + c
        out = np.zeros(m * (m + 1) // 2)
        tracemalloc.start()
        try:
            estimate_gram(records, range(c), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        b = _SYMMETRY_BLOCK
        assert peak <= (rows * m + rows * b + 2 * b * m) * 8

    def test_adds_into_the_accumulator_bit_for_bit(self):
        # Adding the estimate into a state equals adding the estimate made
        # into zeros to it, elementwise, so efficient-mode runs keep their bits.
        rng = np.random.default_rng(2)
        records = [record(rng.normal(size=(300, 4)), rng.integers(1, 9, size=4)) for _ in range(5)]
        acc = rng.normal(size=300 * 301 // 2)
        expected = acc + estimate(records, range(4))
        estimate_gram(records, range(4), acc)
        assert np.array_equal(acc, expected)

    def test_no_contributing_class_gives_zeros(self):
        records = [
            record(np.ones((5, 2)), [0.0, -0.3]),
            record(np.ones((5, 2)), [-1.0, 0.0]),
        ]
        g = estimate(records, [0, 1])
        assert np.array_equal(g, np.zeros(15))


def per_class_estimator(records, c_t, m):
    """The estimator's docstring formula, evaluated one class at a time."""
    g = np.zeros((m, m))
    for i in range(c_t):
        held = [
            (rec.corr[:, i], max(float(rec.label_freq[i]), MIN_COUNT))
            for rec in records
            if rec.label_freq[i] > 0
        ]
        if not held:
            continue
        k = len(held)
        n = sum(count for _, count in held)
        total = sum(col for col, _ in held)
        first = sum(np.outer(col, col) / count for col, count in held)
        g += (n - 1.0) / (k - 1.0) * first
        g -= (n - k) / (n * (k - 1.0)) * np.outer(total, total)
    return (g + g.T) / 2.0


def scalar_estimator_oracle(cols, counts):
    """Plain-float evaluation of the estimator for one class, M = 2."""
    k = len(cols)
    n = sum(counts)
    first = [[0.0, 0.0], [0.0, 0.0]]
    total = [0.0, 0.0]
    for col, cnt in zip(cols, counts):
        for a in range(2):
            total[a] += col[a]
            for b in range(2):
                first[a][b] += col[a] * col[b] / cnt
    out = [[0.0, 0.0], [0.0, 0.0]]
    for a in range(2):
        for b in range(2):
            out[a][b] = (n - 1.0) / (k - 1.0) * first[a][b] - (n - k) / (
                n * (k - 1.0)
            ) * total[a] * total[b]
    return np.array(out)


class TestTemporalAggregate:
    def test_base_case_equals_stage_statistics(self):
        state = TemporalState.initial(2)
        g = rfp(np.array([[2.0, 0.5], [0.5, 1.0]]))
        c = np.array([[1.0], [0.0]])
        fold(state, g, c, [4])
        assert np.array_equal(state.gram_acc, g)
        assert np.array_equal(state.corr_acc, c)
        assert state.class_ids == (4,)

    def test_columns_concatenate_in_task_order(self):
        state = TemporalState.initial(3)
        fold(state, rfp(np.eye(3)), np.ones((3, 3)), [0, 1, 2])
        fold(state, rfp(np.eye(3)), 2 * np.ones((3, 2)), [3, 4])
        assert state.corr_acc.shape == (3, 5)
        assert state.class_ids == (0, 1, 2, 3, 4)
        assert np.all(state.corr_acc[:, :3] == 1.0)
        assert np.all(state.corr_acc[:, 3:] == 2.0)

    def test_gram_accumulates_linearly(self):
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=(4, 4))
        g1 = g1 + g1.T
        g2 = rng.normal(size=(4, 4))
        g2 = g2 + g2.T
        state = TemporalState.initial(4)
        fold(state, rfp(g1), rng.normal(size=(4, 2)), [0, 1])
        fold(state, rfp(g2), rng.normal(size=(4, 2)), [2, 3])
        assert np.allclose(unpack_gram(state.gram_acc, 4), g1 + g2, rtol=1e-12)
        assert state.class_ids == (0, 1, 2, 3)

    def test_class_overlap_rejected(self):
        state = TemporalState.initial(2)
        fold(state, rfp(np.eye(2)), np.ones((2, 2)), [0, 1])
        with pytest.raises(ProtocolError, match="already seen"):
            temporal_aggregate(state, np.ones((2, 1)), [1])

    def test_fold_adds_into_the_state_in_place(self):
        # One accumulated gram serves every stage: the uploads are added into
        # it, and the temporal fold keeps the same array.
        state = TemporalState.initial(3)
        acc = state.gram_acc
        fold(state, rfp(np.eye(3)), np.ones((3, 1)), [0])
        fold(state, rfp(2 * np.eye(3)), np.ones((3, 1)), [1])
        assert state.gram_acc is acc
        assert np.array_equal(acc, rfp(3 * np.eye(3)))
        # A rejected fold leaves its upload in the gram, added before the
        # class list failed, but no column or class id; the run stops on
        # the error.
        with pytest.raises(ProtocolError, match="already seen"):
            fold(state, rfp(np.eye(3)), np.ones((3, 1)), [1])
        assert np.array_equal(acc, rfp(4 * np.eye(3)))
        assert state.corr_acc.shape == (3, 2) and state.class_ids == (0, 1)

    def test_shape_mismatch_rejected(self):
        # A gram of another dimension is rejected by spatial_aggregate,
        # before it is added; see test_upload_of_another_dimension_is_rejected_before_any_add.
        state = TemporalState.initial(3)
        with pytest.raises(ProtocolError, match="stage corr shape"):
            temporal_aggregate(state, np.ones((3, 2)), [0])
        with pytest.raises(ProtocolError, match="stage corr shape"):
            temporal_aggregate(state, np.ones((2, 1)), [0])


class TestJointEquivalence:
    @pytest.mark.parametrize("task_split", [(2, 2, 2), (1, 2, 3), (4, 1, 1), (6,)])
    def test_temporal_accumulation_matches_pooled_joint(self, task_split):
        # However the classes are carved into tasks, the accumulated state
        # equals pooled statistics over everything seen so far.
        rng = np.random.default_rng(13)
        rmap = make_random_map(31, 5, 12)
        classes = list(range(6))
        raw = rng.normal(size=(90, 5))
        labels = rng.integers(0, 6, size=90).astype(np.int64)
        feat = apply_map(rmap, raw)

        state = TemporalState.initial(12)
        start = 0
        for width in task_split:
            task = classes[start : start + width]
            start += width
            mask = np.isin(labels, task)
            stats = local_statistics(feat[mask], labels[mask], task)
            fold(state, stats.gram, stats.corr, task)

            seen = classes[:start]
            pooled_mask = np.isin(labels, seen)
            pooled = local_statistics(feat[pooled_mask], labels[pooled_mask], seen)
            pooled_gram = unpack_gram(pooled.gram, 12)
            g_ref = np.linalg.norm(pooled_gram, "fro")
            c_ref = np.linalg.norm(pooled.corr, "fro")
            state_gram = unpack_gram(state.gram_acc, 12)
            assert np.linalg.norm(state_gram - pooled_gram, "fro") <= 1e-12 * g_ref
            assert np.linalg.norm(state.corr_acc - pooled.corr, "fro") <= 1e-12 * c_ref


class TestUpdateClassifier:
    def test_single_sample_scalar_ridge(self):
        # One sample with feature e1 and gamma=1 gives weight 1/2 on e1.
        stats = local_statistics(np.array([[1.0, 0.0]]), np.array([7]), [7])
        state = TemporalState.initial(2)
        fold(state, stats.gram, stats.corr, [7])
        w = update_classifier(state, gamma=1.0)
        assert w.class_ids == (7,)
        assert np.allclose(w.weights, np.array([[0.5], [0.0]]), rtol=1e-12)

    def test_matches_pooled_ridge_over_two_stages(self):
        rng = np.random.default_rng(5)
        rmap = make_random_map(17, 3, 7)
        raw = rng.normal(size=(40, 3))
        labels = np.concatenate([rng.integers(0, 2, 20), rng.integers(2, 4, 20)]).astype(np.int64)
        feat = apply_map(rmap, raw)

        state = TemporalState.initial(7)
        s1 = local_statistics(feat[:20], labels[:20], [0, 1])
        s2 = local_statistics(feat[20:], labels[20:], [2, 3])
        pooled = local_statistics(feat, labels, [0, 1, 2, 3])
        fold(state, s1.gram, s1.corr, [0, 1])
        fold(state, s2.gram, s2.corr, [2, 3])
        w = update_classifier(state, gamma=0.1)

        g_pooled = unpack_gram(pooled.gram, 7)
        oracle = np.linalg.solve(g_pooled + 0.1 * np.eye(7), pooled.corr)
        delta = np.linalg.norm(w.weights - oracle, "fro")
        assert delta <= 1e-8 * np.linalg.norm(oracle, "fro")

    def test_empty_state_rejected(self):
        with pytest.raises(ProtocolError):
            update_classifier(TemporalState.initial(3), gamma=1.0)
