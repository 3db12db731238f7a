"""Payload extraction: dummy-client splits, efficient uploads, privacy noise."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import stsa.client
from stsa.client import (
    ClientShard,
    UploadPayload,
    add_noise,
    extract_payload,
    mapped_statistics,
)
from stsa.core import apply_map, local_statistics, make_random_map, unpack_gram
from stsa.errors import ConfigurationError, DomainError
from stsa.metrics import comm_bytes
from stsa.prng import ChaChaStream


def symmetric_from_upper_rows(values, m):
    """The symmetric (m, m) matrix whose upper triangle, row by row, is ``values``."""
    upper = np.zeros((m, m))
    upper[np.triu_indices(m)] = values
    return upper + np.triu(upper, 1).T


def make_shard(n=10, d=3, classes=(0, 1), seed=0, client_id=2, task_id=1):
    rng = np.random.default_rng(seed)
    return ClientShard(
        client_id=client_id,
        task_id=task_id,
        features=rng.normal(size=(n, d)),
        labels=rng.choice(classes, size=n).astype(np.int64),
    )


def dummy_cells(shard, k_d, seed):
    """Row indices each efficient-mode record covers.

    One-hot features under an identity matrix make row i of a record's corr
    nonzero exactly when sample i went to that dummy client.
    """
    one_hot = ClientShard(
        client_id=shard.client_id,
        task_id=shard.task_id,
        features=np.eye(shard.size),
        labels=shard.labels,
    )

    class IdentityMap:
        input_dim = output_dim = shard.size
        matrix = np.eye(shard.size)

    rmap = IdentityMap()
    classes = tuple(int(c) for c in np.unique(shard.labels))
    payload = extract_payload(one_hot, rmap, classes, mode="efficient", k_d=k_d, seed=seed)
    return [np.flatnonzero(rec.corr.sum(axis=1)) for rec in payload.records]


def assert_same_statistics(a, b):
    """``a`` and ``b`` hold bit-identical G (or none), C and counts."""
    assert (a.gram is None) == (b.gram is None)
    if a.gram is not None:
        assert np.array_equal(a.gram, b.gram)
    assert np.array_equal(a.corr, b.corr)
    assert np.array_equal(a.label_freq, b.label_freq)
    assert a.label_freq.dtype == b.label_freq.dtype


class TestSplitDummy:
    """The dummy-client split that efficient-mode extract_payload applies."""

    def test_single_cell_returns_input(self):
        shard = make_shard()
        cells = dummy_cells(shard, 1, seed=5)
        assert len(cells) == 1
        assert cells[0].tolist() == list(range(shard.size))

    def test_round_robin_sizes(self):
        cells = dummy_cells(make_shard(n=10), 3, seed=5)
        assert sorted(cell.size for cell in cells) == [3, 3, 4]

    def test_partition_is_disjoint_and_exhaustive(self):
        cells = dummy_cells(make_shard(n=17), 4, seed=8)
        # Every original row appears exactly once across the cells.
        assert sorted(np.concatenate(cells).tolist()) == list(range(17))

    def test_determinism(self):
        shard = make_shard(n=12)
        first = dummy_cells(shard, 3, seed=99)
        second = dummy_cells(shard, 3, seed=99)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert any(
            not np.array_equal(a, b) for a, b in zip(first, dummy_cells(shard, 3, seed=98))
        )

    def test_zero_cells_is_a_configuration_error(self):
        rmap = make_random_map(13, 3, 6)
        with pytest.raises(ConfigurationError, match="dummy client count must be >= 1"):
            extract_payload(make_shard(n=3), rmap, (0, 1), mode="efficient", k_d=0)

    def test_zero_cells_is_rejected_in_full_mode_too(self):
        # k_d is checked before the mode's path is taken, so full mode,
        # which makes no dummy clients, rejects it as well.
        rmap = make_random_map(13, 3, 6)
        with pytest.raises(ConfigurationError, match="dummy client count must be >= 1"):
            extract_payload(make_shard(n=3), rmap, (0, 1), mode="full", k_d=0)


class TestExtractPayload:
    def setup_method(self):
        self.rmap = make_random_map(13, 3, 6)
        self.classes = (0, 1)

    def test_full_mode_matches_kernel_statistics(self):
        # A shard of at most B = 8 rows at M = 6 is one block: exactly the
        # kernel's statistics of the whole mapped shard. Larger shards are
        # checked in TestMappedStatistics.
        for n in (0, 1, 3, 8):
            shard = make_shard(n=n)
            payload = extract_payload(shard, self.rmap, self.classes, mode="full")
            assert len(payload.records) == 1
            oracle = local_statistics(
                apply_map(self.rmap, shard.features), shard.labels, self.classes
            )
            assert_same_statistics(payload.records[0], oracle)

    def test_upload_is_a_header_and_its_records(self):
        assert [f.name for f in fields(UploadPayload)] == ["client_id", "task_id", "records"]

    def test_efficient_single_dummy_equals_full_corr(self):
        shard = make_shard(n=8)
        full = extract_payload(shard, self.rmap, self.classes, mode="full")
        eff = extract_payload(shard, self.rmap, self.classes, mode="efficient", k_d=1)
        assert len(eff.records) == 1
        assert eff.records[0].gram is None
        assert np.array_equal(eff.records[0].corr, full.records[0].corr)
        assert np.array_equal(eff.records[0].label_freq, full.records[0].label_freq)

    def test_efficient_records_sum_to_full(self):
        shard = make_shard(n=2)
        full = extract_payload(shard, self.rmap, self.classes, mode="full")
        eff = extract_payload(shard, self.rmap, self.classes, mode="efficient", k_d=2, seed=3)
        assert len(eff.records) == 2
        summed = eff.records[0].corr + eff.records[1].corr
        assert np.allclose(summed, full.records[0].corr, rtol=1e-12)
        freq = eff.records[0].label_freq + eff.records[1].label_freq
        assert np.array_equal(freq, full.records[0].label_freq)

    @pytest.mark.parametrize("k_d", [1, 2, 5, 10])
    def test_record_sums_reproduce_full_mode_for_any_split(self, k_d):
        shard = make_shard(n=10, seed=4)
        full = extract_payload(shard, self.rmap, self.classes, mode="full")
        eff = extract_payload(shard, self.rmap, self.classes, mode="efficient", k_d=k_d, seed=7)
        summed = sum(rec.corr for rec in eff.records)
        assert np.allclose(summed, full.records[0].corr, rtol=1e-12)
        freq = sum(rec.label_freq for rec in eff.records)
        assert np.array_equal(freq, full.records[0].label_freq)

    def test_efficient_never_carries_gram(self):
        eff = extract_payload(make_shard(n=6), self.rmap, self.classes, mode="efficient", k_d=3)
        assert len(eff.records) == 3
        assert all(rec.gram is None for rec in eff.records)

    def test_dummy_count_is_capped_by_shard_size(self):
        eff = extract_payload(make_shard(n=4), self.rmap, self.classes, mode="efficient", k_d=50)
        assert len(eff.records) == 4
        assert sorted(int(rec.label_freq.sum()) for rec in eff.records) == [1, 1, 1, 1]

    def test_empty_shard_yields_single_zero_record(self):
        shard = ClientShard(
            client_id=0, task_id=1,
            features=np.zeros((0, 3)), labels=np.zeros(0, dtype=np.int64),
        )
        eff = extract_payload(shard, self.rmap, self.classes, mode="efficient", k_d=5)
        assert len(eff.records) == 1
        assert np.all(eff.records[0].corr == 0.0)
        assert eff.records[0].label_freq.tolist() == [0, 0]

    def test_dummy_indices_are_sequential(self):
        eff = extract_payload(make_shard(n=9), self.rmap, self.classes, mode="efficient", k_d=3)
        assert len(eff.records) == 3
        assert (eff.client_id, eff.task_id) == (2, 1)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown payload mode 'compressed'"):
            extract_payload(make_shard(), self.rmap, self.classes, mode="compressed")


class TestAddNoise:
    def setup_method(self):
        self.rmap = make_random_map(13, 3, 6)
        self.classes = (0, 1)

    def test_zero_scale_is_identity(self):
        payload = extract_payload(make_shard(), self.rmap, self.classes, mode="full")
        assert add_noise(payload, 0.0, 5.0, seed=1) is payload
        assert add_noise(payload, 0.3, 0.0, seed=1) is payload

    def test_privacy_setting_noise_scale(self):
        # q=0.2, s=0.05 should perturb entries with std 0.01; the gram
        # triangle of a 1024-dim map has >5e5 entries to estimate it from.
        # Only one triangle is transmitted, so the other is not there to
        # noise: the upload is exactly the RFP gram's M(M+1)/2 entries.
        rmap = make_random_map(5, 2, 1024)
        shard = ClientShard(
            client_id=0, task_id=1,
            features=np.random.default_rng(0).normal(size=(4, 2)),
            labels=np.array([0, 0, 1, 1], dtype=np.int64),
        )
        payload = extract_payload(shard, rmap, self.classes, mode="full")
        noised = add_noise(payload, 0.2, 0.05, seed=11)
        delta = noised.records[0].gram - payload.records[0].gram
        assert delta.shape == (1024 * 1025 // 2,)
        assert delta.size >= 500_000
        assert abs(delta.std() - 0.01) <= 0.05 * 0.01

    def test_zero_matrix_noise_is_centered(self):
        rmap = make_random_map(5, 2, 1024)
        shard = ClientShard(
            client_id=0, task_id=1,
            features=np.zeros((1, 2)), labels=np.array([0], dtype=np.int64),
        )
        payload = extract_payload(shard, rmap, self.classes, mode="full")
        noised = add_noise(payload, 1.0, 1.0, seed=4)
        # The original gram is exactly zero; its RFP entries are noised.
        delta = noised.records[0].gram
        assert abs(delta.mean()) <= 3.0 / np.sqrt(delta.size)

    def test_full_mode_keeps_integer_frequencies(self):
        payload = extract_payload(make_shard(), self.rmap, self.classes, mode="full")
        noised = add_noise(payload, 0.5, 0.5, seed=2)
        assert noised.records[0].label_freq.dtype == np.int64
        assert not np.array_equal(noised.records[0].gram, payload.records[0].gram)
        assert not np.array_equal(noised.records[0].corr, payload.records[0].corr)

    def test_efficient_mode_noises_frequencies_as_reals(self):
        payload = extract_payload(make_shard(n=6), self.rmap, self.classes, mode="efficient", k_d=2)
        assert all(r.label_freq.dtype == np.int64 for r in payload.records)
        noised = add_noise(payload, 0.5, 0.5, seed=2)
        for rec in noised.records:
            assert rec.label_freq.dtype == np.float64
            assert rec.gram is None

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_draw_order(self, mode):
        # One stream per upload: full mode draws G's upper triangle, in
        # row-major order, then C; efficient mode draws C then n for each
        # record in turn.
        payload = extract_payload(make_shard(n=6), self.rmap, self.classes, mode=mode, k_d=2)
        noised = add_noise(payload, 0.5, 2.0, seed=9)
        stream = ChaChaStream(9)
        for rec, out in zip(payload.records, noised.records):
            names = ("gram", "corr") if mode == "full" else ("corr", "label_freq")
            for name in names:
                clean = getattr(rec, name)
                draw = 0.5 * 2.0 * stream.standard_normal(clean.size)
                if name == "gram":
                    assert clean.shape == (21,)  # M = 6, one triangle
                    expected = unpack_gram(clean, 6) + symmetric_from_upper_rows(draw, 6)
                    assert np.array_equal(unpack_gram(out.gram, 6), expected)
                else:
                    expected = clean + draw.reshape(clean.shape)
                    assert np.array_equal(getattr(out, name), expected)
        if mode == "full":
            assert noised.records[0].label_freq is payload.records[0].label_freq

    def test_gram_draws_land_on_both_sides_row_by_row(self):
        # The noised gram minus the clean one, unpacked, is the symmetric
        # matrix whose upper triangle, row by row, is q s times the stream's
        # first M(M+1)/2 normals: each draw lands on both (i, j) and (j, i),
        # whatever slots RFP gives them. M = 7 is odd; test_draw_order
        # checks the same map at the even M = 6.
        m = 7
        rmap = make_random_map(13, 3, m)
        payload = extract_payload(make_shard(n=6), rmap, self.classes, mode="full")
        noised = add_noise(payload, 0.5, 2.0, seed=9)
        draw = 0.5 * 2.0 * ChaChaStream(9).standard_normal(m * (m + 1) // 2)
        clean = unpack_gram(payload.records[0].gram, m)
        expected = clean + symmetric_from_upper_rows(draw, m)
        assert np.array_equal(unpack_gram(noised.records[0].gram, m), expected)

    def test_full_mode_draws_the_triangle_and_corr(self, monkeypatch):
        # M(M+1)/2 gram draws and M * c_t corr draws, where noising every
        # gram entry would draw M^2 + M * c_t.
        draws = []
        original = ChaChaStream.standard_normal

        def counting(stream, n):
            draws.append(n)
            return original(stream, n)

        payload = extract_payload(make_shard(), self.rmap, self.classes, mode="full")
        monkeypatch.setattr(ChaChaStream, "standard_normal", counting)
        add_noise(payload, 0.5, 0.5, seed=2)
        m, c_t = 6, len(self.classes)
        assert draws == [m * (m + 1) // 2, m * c_t]

    def test_determinism(self):
        payload = extract_payload(make_shard(), self.rmap, self.classes, mode="full")
        a = add_noise(payload, 0.2, 0.05, seed=21)
        b = add_noise(payload, 0.2, 0.05, seed=21)
        assert np.array_equal(a.records[0].gram, b.records[0].gram)

    def test_negative_parameters_rejected(self):
        payload = extract_payload(make_shard(), self.rmap, self.classes, mode="full")
        with pytest.raises(DomainError):
            add_noise(payload, -0.1, 1.0, seed=0)

    @pytest.mark.parametrize("q, s", [(float("nan"), 1.0), (0.2, float("inf"))])
    def test_non_finite_parameters_rejected(self, q, s):
        # NaN fails every comparison, so it must not pass as "no noise".
        payload = extract_payload(make_shard(), self.rmap, self.classes, mode="full")
        with pytest.raises(DomainError, match="finite and non-negative"):
            add_noise(payload, q, s, seed=0)


@pytest.mark.parametrize("elem_bytes", [4, 8])
@pytest.mark.parametrize("noised", [False, True], ids=["clean", "noised"])
@pytest.mark.parametrize("mode", ["full", "efficient"])
def test_ledger_counts_the_arrays_an_upload_transmits(mode, noised, elem_bytes):
    # Full mode transmits G and C, efficient mode C and n per record; the
    # ledger's comm_bytes must be exactly those element counts.
    rmap = make_random_map(13, 3, 9)
    shard = make_shard(n=10, classes=(0, 1, 2), seed=6)
    payload = extract_payload(shard, rmap, (0, 1, 2), mode=mode, k_d=4, seed=1)
    if noised:
        payload = add_noise(payload, 0.2, 0.05, seed=3)
    names = ("gram", "corr") if mode == "full" else ("corr", "label_freq")
    sent = sum(getattr(rec, name).size for rec in payload.records for name in names)
    records = len(payload.records)
    assert records == (1 if mode == "full" else 4)
    assert comm_bytes(9, 3, records, mode, elem_bytes) == elem_bytes * sent


def integer_shard(n, m, classes=(0, 1, 2), seed=0):
    """A shard of ``n`` rows of small-integer features of width ``m``.

    Under an identity map every product and sum of these features is an
    exactly representable integer, so every summation order gives the same
    bits.
    """
    rng = np.random.default_rng(seed)
    return ClientShard(
        client_id=0,
        task_id=1,
        features=rng.integers(0, 4, size=(n, m)).astype(np.float64),
        labels=rng.choice(classes, size=n).astype(np.int64),
    )


class TestMappedStatistics:
    """One statistics path: raw rows mapped a block at a time, summed in place."""

    @pytest.mark.parametrize("m", [600, 800])
    def test_a_block_of_rows_is_one_kernel_call(self, m):
        # Shards and cells of one whole block, B rows (296 at M = 600, 400
        # at M = 800), keep the bits of mapping the whole shard once and
        # taking each record's rows from it: a row maps to the same bits in
        # any block, as test_mapping_a_row_subset_is_bit_identical pins.
        rmap = make_random_map(3, 16, m)
        block = {600: 296, 800: 400}[m]
        classes = (0, 1, 2)
        shard = make_shard(n=block, d=16, classes=classes, seed=1)
        mapped = apply_map(rmap, shard.features)
        full = extract_payload(shard, rmap, classes, mode="full")
        assert_same_statistics(full.records[0], local_statistics(mapped, shard.labels, classes))
        shard = make_shard(n=2 * block, d=16, classes=classes, seed=2)
        mapped = apply_map(rmap, shard.features)
        eff = extract_payload(shard, rmap, classes, mode="efficient", k_d=2, seed=4)
        cells = dummy_cells(shard, 2, seed=4)
        assert [cell.size for cell in cells] == [block, block]
        for rec, cell in zip(eff.records, cells):
            reference = local_statistics(
                mapped[cell], shard.labels[cell], classes, include_gram=False
            )
            assert_same_statistics(rec, reference)

    @pytest.mark.parametrize("include_gram", [True, False], ids=["full", "first-order"])
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 41])
    def test_blocks_sum_to_the_shards_statistics(self, monkeypatch, n, include_gram):
        # Identity-mapped integer rows in blocks of B = 8 at M = 12: G, C and
        # the counts equal numpy's X^T X, X^T Y and the per-class row counts
        # exactly, so a dropped, repeated or misplaced block shows.
        m, classes = 12, (0, 1, 2)
        monkeypatch.setattr(stsa.client, "apply_map", lambda rmap, raw: raw.copy())
        rmap = make_random_map(3, m, m)
        shard = integer_shard(n, m, classes)
        stats = mapped_statistics(
            rmap, shard.features, shard.labels, classes, include_gram=include_gram
        )
        x = shard.features
        onehot = np.eye(len(classes))[shard.labels]
        if include_gram:
            assert np.array_equal(unpack_gram(stats.gram, m), x.T @ x)
        else:
            assert stats.gram is None
        assert np.array_equal(stats.corr, x.T @ onehot)
        assert stats.label_freq.tolist() == np.bincount(shard.labels, minlength=3).tolist()
        assert stats.label_freq.dtype == np.int64

    @pytest.mark.parametrize("mode", ["full", "efficient"])
    def test_uploads_count_every_row_once(self, monkeypatch, mode):
        # Through extract_payload, with stsa.client's map made the identity:
        # a full-mode shard of 41 rows and each efficient-mode cell of about
        # 20 span several blocks, and the records still sum exactly.
        m, classes = 12, (0, 1, 2)
        monkeypatch.setattr(stsa.client, "apply_map", lambda rmap, raw: raw.copy())
        shard = integer_shard(41, m, classes, seed=5)
        payload = extract_payload(
            shard, make_random_map(3, m, m), classes, mode=mode, k_d=2, seed=6
        )
        x = shard.features
        onehot = np.eye(len(classes))[shard.labels]
        assert np.array_equal(sum(rec.corr for rec in payload.records), x.T @ onehot)
        freq = sum(rec.label_freq for rec in payload.records)
        assert freq.tolist() == np.bincount(shard.labels, minlength=3).tolist()
        if mode == "full":
            assert np.array_equal(unpack_gram(payload.records[0].gram, m), x.T @ x)
        else:
            assert len(payload.records) == 2

    def test_full_mode_holds_one_block(self):
        # A shard of 8M rows mapped whole would hold 4 M x M units of mapped
        # rows. Mapped in blocks of B = ceil(M/2) rows, the peak is one
        # block's raw rows, mapped rows and one-hot labels, with a few int64
        # of label bookkeeping per row, plus the one RFP gram that every
        # block adds into, and C twice: the block's and the sum's.
        m, d, c = 200, 16, 2
        block = -(-m // 2)
        shard = make_shard(n=8 * m, d=d, classes=tuple(range(c)), seed=3)
        rmap = make_random_map(1, d, m)
        rmap.matrix  # made once and cached, before tracing
        peak = traced_peak(lambda: extract_payload(shard, rmap, tuple(range(c)), mode="full"))
        assert peak <= (block * (d + m + c + 8) + m * (m + 1) // 2 + 2 * m * c) * 8

    def test_efficient_mode_never_holds_the_mapped_shard(self):
        # Each of the two cells' raw rows and labels are gathered, then
        # mapped a block at a time, so the peak is one cell's raw rows and
        # labels, the shard's shuffle and the cells' sorted row indices (n
        # int64 each), one block as above, C per record plus the block's,
        # and 8 KB of array headers and views: not the 4 M x M units of the
        # whole mapped shard.
        m, d, c, k_d = 200, 16, 2, 2
        n, block = 8 * m, -(-m // 2)
        shard = make_shard(n=n, d=d, classes=tuple(range(c)), seed=3)
        rmap = make_random_map(1, d, m)
        rmap.matrix  # made once and cached, before tracing
        peak = traced_peak(
            lambda: extract_payload(shard, rmap, tuple(range(c)), mode="efficient", k_d=k_d)
        )
        cell = n // k_d * (d + 1)
        headers = 8 * 1024
        assert peak <= (cell + 2 * n + block * (m + c + 8) + (k_d + 1) * m * c) * 8 + headers
        assert peak < n * m * 8


def traced_peak(call) -> int:
    """The peak traced allocation, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
