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
        ``train.task`` hands them out; no block holds more than
        B = ceil(M/2) rows, and a task spans the fewest blocks that allows,
        so a task of at most B rows is pooled in one call.

        ``train`` is the whole training split drawn eagerly, as
        ``generate_synthetic`` draws it: a run draws one task at a time."""
        import numpy as np

        tasks = [train.task(task) for task in schedule.tasks]
        assert np.array_equal(
            np.concatenate([raw for raw, _ in self]), np.concatenate([rows for rows, _ in tasks])
        )
        assert np.array_equal(
            np.concatenate([labels for _, labels in self]),
            np.concatenate([labels for _, labels in tasks]),
        )
        block = -(-m // 2)
        assert max(labels.size for _, labels in self) <= block
        calls = [sum(np.isin(labels, task).all() for _, labels in self) for task in schedule.tasks]
        assert calls == [max(1, -(-labels.size // block)) for _, labels in tasks]


@pytest.fixture
def pooled_blocks(monkeypatch):
    """The blocks pooled by ``local_statistics`` calls made through
    ``stsa.runner``'s names, recorded as a ``PooledBlocks``.

    Clients pool through ``stsa.client``'s names, so every block recorded
    here was pooled by the oracle. A block's raw rows are those of the
    ``apply_map`` call made through ``stsa.runner`` just before it.
    """
    import stsa.runner

    blocks, raws = PooledBlocks(), []
    apply_map, local_statistics = stsa.runner.apply_map, stsa.runner.local_statistics

    def mapping(rmap, raw):
        raws[:] = [raw]
        return apply_map(rmap, raw)

    def pooling(feat, labels, *args, **kwargs):
        (raw,) = raws
        assert raw.shape[0] == feat.shape[0]
        blocks.append((raw, labels))
        return local_statistics(feat, labels, *args, **kwargs)

    monkeypatch.setattr(stsa.runner, "apply_map", mapping)
    monkeypatch.setattr(stsa.runner, "local_statistics", pooling)
    return blocks
