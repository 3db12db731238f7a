"""Pin BLAS to one thread before numpy is imported.

The reports' ``[oracle]`` lines depend on how the BLAS splits its sums
across threads, so the goldens are pinned at one thread, as the benchmark
harness runs. pytest imports this file before any test module.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class PooledBlocks(list):
    """(raw rows, labels) of each block the oracle pooled, in call order."""

    def assert_each_training_row_once(self, train, schedule, m):
        """Every training row was pooled exactly once, task by task as
        ``train.task`` hands them out; no block holds more than the B rows
        of ``stsa.core.map_blocks`` at ``M = m``, and a task spans the fewest
        blocks that allows, so a task of at most B rows is pooled in one call.

        ``train`` is the whole training split drawn eagerly, as
        ``generate_synthetic`` draws it: a run draws one task at a time."""
        import numpy as np

        from stsa.core import RandomMap, map_blocks

        tasks = [train.task(task) for task in schedule.tasks]
        assert np.array_equal(
            np.concatenate([raw for raw, _ in self]), np.concatenate([rows for rows, _ in tasks])
        )
        assert np.array_equal(
            np.concatenate([labels for _, labels in self]),
            np.concatenate([labels for _, labels in tasks]),
        )
        block = next(map_blocks(RandomMap(seed=0, input_dim=1, output_dim=m), 2 * m)).stop
        assert max(labels.size for _, labels in self) <= block
        calls = [sum(np.isin(labels, task).all() for _, labels in self) for task in schedule.tasks]
        assert calls == [max(1, -(-labels.size // block)) for _, labels in tasks]


@pytest.fixture
def pooled_blocks(monkeypatch):
    """The blocks pooled by ``local_statistics`` calls made through
    ``stsa.client``'s names while ``stsa.runner._pool_task`` runs, recorded
    as a ``PooledBlocks``.

    Clients pool through the same names, but never inside ``_pool_task``, so
    every block recorded here was pooled by the oracle. A block's raw rows
    are those of the ``apply_map`` call made through ``stsa.client`` just
    before it.
    """
    import stsa.client
    import stsa.runner

    blocks, raws, pooling_task = PooledBlocks(), [], []
    apply_map, local_statistics = stsa.client.apply_map, stsa.client.local_statistics
    pool_task = stsa.runner._pool_task

    def pooling_a_task(*args):
        pooling_task.append(True)
        try:
            return pool_task(*args)
        finally:
            pooling_task.pop()

    def mapping(rmap, raw):
        raws[:] = [raw]
        return apply_map(rmap, raw)

    def pooling(feat, labels, *args, **kwargs):
        if pooling_task:
            (raw,) = raws
            assert raw.shape[0] == feat.shape[0]
            blocks.append((raw, labels))
        return local_statistics(feat, labels, *args, **kwargs)

    monkeypatch.setattr(stsa.runner, "_pool_task", pooling_a_task)
    monkeypatch.setattr(stsa.client, "apply_map", mapping)
    monkeypatch.setattr(stsa.client, "local_statistics", pooling)
    return blocks
