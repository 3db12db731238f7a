"""End-to-end experiment orchestration and verification oracles.

One run walks the incremental stages: take the stage's task from the
training split's ``task``, partition it across clients, fold the uploads
into the run's ``TemporalState`` in place with ``_fold_stage``, the one
stage fold, and update the classifier in closed form, which the run keeps.
A task's raw training rows exist only during its own stage: a synthetic
split draws them then, a feature file reads them, and they go with the last
upload, before the gram estimate and the solve, so a stage holds one task's
raw training rows and the classifiers of the stages before it. With
``oracle_check`` enabled each stage is also compared against the pooled
centralized solution, which the aggregation is exactly equivalent to. The
oracle pools each task's training rows, at that task's stage, through the
clients' own statistics path, ``client.mapped_statistics``, and folds them
into a second ``TemporalState`` by ``_fold_stage`` too, as a stage with one
upload; only the solve, an in-place LU of the one unpacked system, differs.

Scoring comes after the last stage, once the states are let go.
``score_tasks`` takes each task's test rows once from the test split's
``task`` and scores every classifier that task is scored with: for
``run_experiment`` those of its own stage and every later one, which fills
the accuracy matrix's column for the task; for ``run_oracle``, which pools
the whole schedule that way, the one pooled classifier. A test split
draws or reads a task's rows then, so raw test rows are never resident
beyond one task's. Clients, the oracle and scoring all map rows one
``core.map_blocks`` block at a time, so no mapped array outweighs a block.

An error in a stage names the stage, and one in the oracle's pooling or in
scoring names the task; each keeps its type, and an allocation that fails
is an OutOfMemoryError.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .client import (
    ClientShard,
    UploadPayload,
    add_noise,
    extract_payload,
    mapped_statistics,
)
from .config import ExperimentConfig
from .core import (
    ClassifierWeights,
    RandomMap,
    apply_map,
    class_columns,
    dgesv,
    gram_frobenius,
    local_statistics,
    make_random_map,
    map_blocks,
    predict,
    unpack_gram,
)
from .data import (
    Split,
    SynthSpec,
    SyntheticSplit,
    TaskSchedule,
    dirichlet_partition,
    load_features,
    random_synth_spec,
    split_tasks,
)
from .errors import ConfigurationError, NumericalError, OutOfMemoryError, StsaError
from .metrics import (
    AccuracyMatrix,
    CommLedger,
    avg_incremental_accuracy,
    average_forgetting,
    comm_bytes,
    final_average_accuracy,
)
from .prng import ChaChaStream, derive_seed
from .server import (
    TemporalState,
    estimate_gram,
    spatial_aggregate,
    temporal_aggregate,
    update_classifier,
)

REPORT_SCHEMA = "stsa-report/1"


@dataclass(frozen=True)
class StageOracleDelta:
    """Relative Frobenius gaps between the federated and pooled paths."""

    stage: int
    w_delta: float
    gram_delta: float
    corr_delta: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    accuracy: AccuracyMatrix
    a_avg_literal: float
    a_avg_normalized: float
    a_t: float
    f_t: float | None
    oracle: tuple[StageOracleDelta, ...] | None
    comm: CommLedger

    def to_text(self) -> str:
        lines = [f"schema = {REPORT_SCHEMA}", "", "[config]"]
        lines.append(self.config.to_text().rstrip("\n"))
        lines += ["", "[accuracy]"]
        for t, row in enumerate(self.accuracy.rows, start=1):
            for tau, value in enumerate(row, start=1):
                lines.append(f"A[{t}][{tau}] = {value!r}")
        lines += ["", "[metrics]"]
        lines.append(f"A_avg_literal = {self.a_avg_literal!r}")
        lines.append(f"A_avg_normalized = {self.a_avg_normalized!r}")
        lines.append(f"A_T = {self.a_t!r}")
        if self.f_t is not None:
            lines.append(f"F_T = {self.f_t!r}")
        if self.oracle is not None:
            lines += ["", "[oracle]"]
            for entry in self.oracle:
                lines.append(
                    f"stage {entry.stage}: w_delta = {entry.w_delta!r} "
                    f"gram_delta = {entry.gram_delta!r} corr_delta = {entry.corr_delta!r}"
                )
        lines += ["", "[comm]"]
        lines.append(f"mode = {self.config.mode}")
        lines.append(f"elem_bytes = {self.config.elem_bytes}")
        for (stage, client), nbytes in sorted(self.comm.entries.items()):
            lines.append(f"stage {stage} client {client}: {nbytes}")
        lines.append(f"total = {self.comm.total}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OracleReport:
    """Per-task accuracy of the classifier solved from the whole schedule pooled."""

    accuracies: tuple[float, ...]

    def to_text(self) -> str:
        lines = ["schema = stsa-oracle/1"]
        lines += [
            f"task {tau} accuracy = {acc!r}" for tau, acc in enumerate(self.accuracies, start=1)
        ]
        lines.append(f"final average accuracy = {sum(self.accuracies) / len(self.accuracies)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EstimatorStudy:
    """Monte-Carlo gram-estimation error as a function of the client count."""

    k_values: tuple[int, ...]
    mean_sq_errors: tuple[float, ...]
    se_sq_errors: tuple[float, ...]
    reference: tuple[float, ...]  # ((K+1)/(K-1))^2 trend line
    trials: int

    def to_text(self) -> str:
        lines = ["schema = stsa-estimator-study/1", f"trials = {self.trials}"]
        for k, mean, se, ref in zip(
            self.k_values, self.mean_sq_errors, self.se_sq_errors, self.reference
        ):
            lines.append(
                f"K = {k}: mean_sq_error = {mean!r} se = {se!r} reference = {ref!r}"
            )
        return "\n".join(lines) + "\n"


def synth_spec_from_config(config: ExperimentConfig) -> SynthSpec:
    return random_synth_spec(
        class_count=config.synth_classes,
        dim=config.synth_dim,
        train_per_class=config.synth_train_per_class,
        test_per_class=config.synth_test_per_class,
        seed=derive_seed(config.seed, "synth"),
        noise_std=config.synth_noise_std,
    )


def load_experiment_data(config: ExperimentConfig) -> tuple[Split, Split]:
    """The run's training and test splits.

    No row is read or drawn here. Synthetic splits draw only the class
    means, and feature files are checked and their labels read (see
    ``load_features``). Either split's ``task`` hands out a task's rows when
    a stage or the scoring asks for them.
    """
    if config.data == "synthetic":
        spec = synth_spec_from_config(config)
        return SyntheticSplit(spec, "train"), SyntheticSplit(spec, "test")
    train = load_features(config.train_path)
    test = load_features(config.test_path)
    for role, dataset in (("train", train), ("test", test)):
        if dataset.role != role:
            raise ConfigurationError(f"{role}_path holds a {dataset.role} split, not a {role} split")
    if train.class_count != test.class_count:
        raise ConfigurationError(
            f"train declares {train.class_count} classes, test {test.class_count}"
        )
    if train.dim != test.dim:
        raise ConfigurationError(
            f"train features have {train.dim} columns, test features {test.dim}"
        )
    return train, test


def make_schedule(config: ExperimentConfig, class_count: int) -> TaskSchedule:
    shuffle_seed = (
        derive_seed(config.seed, "class-order") if config.shuffle_classes else None
    )
    return split_tasks(class_count, config.T, config.first_task_classes, shuffle_seed)


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a matrix, or of the symmetric one a 1-D RFP ``a`` packs."""
    return gram_frobenius(a) if a.ndim == 1 else float(np.linalg.norm(a, "fro"))


def _rel_frobenius(value: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius norm of ``value - reference`` relative to that of ``reference``."""
    ref_norm = _frobenius(reference)
    delta_norm = _frobenius(value - reference)
    if ref_norm == 0.0:
        return 0.0 if delta_norm == 0.0 else float("inf")
    return delta_norm / ref_norm


def experiment_map(config: ExperimentConfig, input_dim: int) -> RandomMap:
    """The run's shared random map, seeded from the config, for raw dim ``input_dim``."""
    return make_random_map(derive_seed(config.seed, "map"), input_dim, config.M)


@contextmanager
def _error_context(where: Callable[[], str]):
    """Prefix a package error or a failed allocation raised inside with ``where()``.

    ``where`` is called when an error is raised, so it can name what was
    under way then. The prefix goes on in place, so the error keeps its type
    and attributes such as NumericalError.attempted_gammas; a MemoryError
    becomes an OutOfMemoryError.
    """
    try:
        yield
    except (StsaError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            raise OutOfMemoryError(f"{where()}: {exc}") from exc
        exc.args = (f"{where()}: {exc}",)
        raise


def score_tasks(
    rmap: RandomMap,
    test: Split,
    tasks: Sequence[Sequence[int]],
    classifiers: Sequence[Sequence[ClassifierWeights]],
) -> tuple[tuple[float, ...], ...]:
    """Top-1 accuracy of each of ``classifiers[i]`` on ``tasks[i]``'s test rows.

    Each task's raw test rows are taken once and mapped one ``map_blocks``
    block at a time; every classifier of the task scores each block, which
    goes before the next is mapped, and an accuracy is the correct count
    over the task's rows. An error names the task as ``scoring task i``,
    counted from 1.
    """
    scores = []
    for tau, (task, weights) in enumerate(zip(tasks, classifiers, strict=True), start=1):
        with _error_context(lambda: f"scoring task {tau}"):
            raw, labels = test.task(task)
            correct = [0] * len(weights)
            for block in map_blocks(rmap, labels.size):
                mapped = apply_map(rmap, raw[block])
                for i, w in enumerate(weights):
                    correct[i] += int(np.count_nonzero(predict(w, mapped) == labels[block]))
                del mapped  # let this block go before the next one is made
            scores.append(tuple(count / labels.size for count in correct))
    return tuple(scores)


def centralized_oracle(pooled: TemporalState, gamma: float) -> ClassifierWeights:
    """Ridge solution of statistics pooled with access to all data.

    This is the equivalence reference for the federated-incremental path, and
    mirrors ``update_classifier``: ``pooled`` is the oracle's own
    ``TemporalState``, which ``_pool_task`` folds through ``_fold_stage``, and
    the weights' class ids are its class ids. The regularized normal
    equations are solved by an LU solve, ``dgesv``, a route independent of
    the SPD factorization used by the aggregation path; a singular system is
    a NumericalError. The one unpacked M x M system is factorized in place:
    it is symmetric, so its transpose is the same matrix in the column-major
    order LAPACK reads, and no copy of it is made.
    """
    if not pooled.class_ids:
        raise ConfigurationError("the oracle needs at least one class")
    system = unpack_gram(pooled.gram_acc, pooled.corr_acc.shape[0])
    system[np.diag_indices(system.shape[0])] += gamma
    _, _, weights, info = dgesv(system.T, pooled.corr_acc, overwrite_a=1)
    if info > 0:
        raise NumericalError(
            "the oracle's pooled system G + gamma I is singular: Singular matrix"
        )
    return ClassifierWeights(weights=weights, class_ids=pooled.class_ids)


def _fold_stage(
    state: TemporalState, uploads: Iterable, task_classes: Sequence[int], client_count: int
) -> None:
    """Fold one stage's uploads, one per client, into ``state`` in place.

    The uploads are summed across clients (spatial), efficient-mode records
    estimate the task's gram, and the task is appended onto the state
    (temporal). The records go when this returns, before the solve.
    """
    corr, records = spatial_aggregate(uploads, task_classes, client_count, state.gram_acc)
    if records:
        estimate_gram(records, task_classes, state.gram_acc)
    temporal_aggregate(state, corr, task_classes)


def _pool_task(
    pooled: TemporalState,
    rmap: RandomMap,
    features: np.ndarray,
    labels: np.ndarray,
    task_classes: Sequence[int],
) -> None:
    """Fold one more task into the oracle's state ``pooled``, in place.

    The task's ``labels`` become ``class_columns`` once, and its raw
    training rows ``features`` are pooled by ``mapped_statistics``, the
    clients' own path, into one set of statistics. That is the one upload of
    a one-client stage, folded by ``_fold_stage``.
    """
    cols = class_columns(labels, task_classes)

    def upload():
        # Yielded with no name bound, so the server's fold is the
        # statistics' last use.
        yield UploadPayload(
            client_id=0,
            task_id=0,
            records=(mapped_statistics(rmap, features, cols, len(task_classes)),),
        )

    _fold_stage(pooled, upload(), task_classes, 1)


def _setup(config: ExperimentConfig) -> tuple[Split, Split, TaskSchedule, RandomMap]:
    """The run's data, task schedule and random map.

    ``config`` was checked when it was built, so nothing here re-checks it.
    A task with no test rows would score an accuracy of nothing, so it is a
    ConfigurationError that names the task, before any stage runs.
    """
    train, test = load_experiment_data(config)
    schedule = make_schedule(config, train.class_count)
    for tau, task in enumerate(schedule.tasks, start=1):
        if not np.isin(test.labels, task).any():
            raise ConfigurationError(
                f"task {tau} (classes {list(task)}) has no test rows to evaluate"
            )
    return train, test, schedule, experiment_map(config, train.dim)


def run_oracle(config: ExperimentConfig) -> OracleReport:
    """Pool the whole schedule, one task at a time, and score the pooled classifier.

    Each task's raw training rows are materialized for its own pooling only.
    An error while pooling names the task as ``pooling task i``, counted
    from 1.
    """
    train, test, schedule, rmap = _setup(config)
    pooled = TemporalState.initial(rmap.output_dim)
    for tau, task in enumerate(schedule.tasks, start=1):
        with _error_context(lambda: f"pooling task {tau}"):
            _pool_task(pooled, rmap, *train.task(task), task)
    weights = centralized_oracle(pooled, config.gamma)
    del pooled  # scoring needs only the weights
    scores = score_tasks(rmap, test, schedule.tasks, [(weights,)] * schedule.stages)
    return OracleReport(accuracies=tuple(acc for (acc,) in scores))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full federated class-incremental loop for one config."""
    train, test, schedule, rmap = _setup(config)

    state = TemporalState.initial(rmap.output_dim)
    ledger = CommLedger()

    stage_weights: list[ClassifierWeights] = []
    oracle_deltas: list[StageOracleDelta] | None = [] if config.oracle_check else None
    # The oracle's own state, over tasks 1..t.
    pooled = TemporalState.initial(rmap.output_dim) if config.oracle_check else None

    for t in range(1, schedule.stages + 1):
        task_classes = schedule.tasks[t - 1]
        c_t = len(task_classes)
        client = None  # the client computing its upload, for error context

        def uploads(task_rows, task_labels, parts):
            """Each client's upload in client order, made when the server asks."""
            nonlocal client
            for k in range(config.K):
                client = k
                shard = ClientShard(
                    client_id=k,
                    task_id=t,
                    features=task_rows[parts[k]],
                    labels=task_labels[parts[k]],
                )
                payload = extract_payload(
                    shard,
                    rmap,
                    task_classes,
                    config.mode,
                    config.K_D,
                    derive_seed(config.seed, f"dummy/stage={t}/client={k}"),
                )
                payload = add_noise(
                    payload,
                    config.noise_q,
                    config.noise_s,
                    derive_seed(config.seed, f"noise/stage={t}/client={k}"),
                )
                client = None
                records = len(payload.records)
                ledger.add(
                    t, k, comm_bytes(rmap.output_dim, c_t, records, config.mode, config.elem_bytes)
                )
                yield payload
                # Let go of this upload before making the next one, so the
                # server's fold is its last use.
                del shard, payload

        with _error_context(
            lambda: f"stage {t}" if client is None else f"stage {t}, client {client}"
        ):
            task_rows, task_labels = train.task(task_classes)
            parts = dirichlet_partition(
                task_labels,
                config.K,
                config.beta,
                derive_seed(config.seed, f"partition/stage={t}"),
            )
            stage = uploads(task_rows, task_labels, parts)
            if not config.oracle_check:
                del task_rows  # the uploads' own reference goes with the last upload
            _fold_stage(state, stage, task_classes, config.K)
            weights = update_classifier(state, config.gamma)
            stage_weights.append(weights)
            if config.oracle_check:
                _pool_task(pooled, rmap, task_rows, task_labels, task_classes)
                del task_rows  # the oracle was the task's last use
                w_star = centralized_oracle(pooled, config.gamma)
                oracle_deltas.append(
                    StageOracleDelta(
                        stage=t,
                        w_delta=_rel_frobenius(weights.weights, w_star.weights),
                        gram_delta=_rel_frobenius(state.gram_acc, pooled.gram_acc),
                        corr_delta=_rel_frobenius(state.corr_acc, pooled.corr_acc),
                    )
                )
                del w_star  # so the next stage's oracle solve does not hold it too

    # Scoring needs only the weights, so the sums go first.
    del state, pooled
    # Task tau is scored by its own stage's classifier and every later one:
    # column tau of the accuracy matrix, from row tau down.
    columns = score_tasks(
        rmap, test, schedule.tasks, [stage_weights[tau:] for tau in range(schedule.stages)]
    )
    accuracy = AccuracyMatrix(
        rows=tuple(
            tuple(columns[tau][t - tau] for tau in range(t + 1)) for t in range(schedule.stages)
        )
    )
    literal = avg_incremental_accuracy(accuracy)
    return ExperimentReport(
        config=config,
        accuracy=accuracy,
        a_avg_literal=literal,
        a_avg_normalized=literal / accuracy.stages,
        a_t=final_average_accuracy(accuracy),
        f_t=average_forgetting(accuracy) if accuracy.stages >= 2 else None,
        oracle=tuple(oracle_deltas) if oracle_deltas is not None else None,
        comm=ledger,
    )


def run_estimator_study(
    spec: SynthSpec, k_values, trials: int, seed: int
) -> EstimatorStudy:
    """Monte-Carlo sweep of the gram-estimation error over client counts.

    Each trial draws the per-class samples, splits them evenly across K
    clients (fixed total n), estimates the gram from the clients' first-order
    ``local_statistics`` records and measures the squared Frobenius gap to
    the realized gram.
    """
    k_values = tuple(int(k) for k in k_values)
    if trials < 100:
        raise ConfigurationError(f"estimator study needs >= 100 trials, got {trials}")
    for k in k_values:
        if k < 2:
            raise ConfigurationError(f"estimator study needs K >= 2, got {k}")
        if k > spec.train_per_class:
            raise ConfigurationError(
                f"K={k} exceeds the {spec.train_per_class} samples per class"
            )
    means, ses = [], []
    for k in k_values:
        stream = ChaChaStream(derive_seed(seed, f"study/K={k}"))
        errors = np.empty(trials)
        for trial in range(trials):
            errors[trial] = _estimation_trial(spec, k, stream)
        means.append(float(errors.mean()))
        ses.append(float(errors.std(ddof=1) / np.sqrt(trials)))
    reference = tuple(((k + 1) / (k - 1)) ** 2 for k in k_values)
    return EstimatorStudy(
        k_values=k_values,
        mean_sq_errors=tuple(means),
        se_sq_errors=tuple(ses),
        reference=reference,
        trials=trials,
    )


def _estimation_trial(spec: SynthSpec, k: int, stream: ChaChaStream) -> float:
    """One trial's squared Frobenius error of the estimated gram.

    Each class draws its ``n`` samples, and client j holds the j-th of K
    even slices of every class's samples. Its record is the first-order
    ``local_statistics`` of its rows, the clients' own path.
    """
    c, m, n = spec.class_count, spec.dim, spec.train_per_class
    gram_true = np.zeros((m, m))
    samples = np.empty((c, n, m))
    for cls in range(c):
        x = spec.means[cls] + spec.noise_std * stream.standard_normal(n * m).reshape(n, m)
        gram_true += x.T @ x
        samples[cls] = x
    records = [
        local_statistics(
            part.reshape(-1, m), np.repeat(np.arange(c), part.shape[1]), c, include_gram=False
        )
        for part in np.array_split(samples, k, axis=1)
    ]
    g_hat = np.zeros(m * (m + 1) // 2)
    estimate_gram(records, range(c), g_hat)
    return float(np.linalg.norm(unpack_gram(g_hat, m) - gram_true, "fro") ** 2)
