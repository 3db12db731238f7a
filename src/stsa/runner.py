"""End-to-end experiment orchestration and verification oracles.

One run walks the incremental stages: partition the stage's data across
clients, extract payloads, aggregate spatially and temporally, update the
classifier in closed form, then evaluate on every task seen so far. Test
data stays raw: each stage maps one seen task's test rows at a time, scores
them and lets them go, so no mapped copy of the test set is ever held. With
``oracle_check`` enabled each stage is also compared against the pooled
centralized solution, which the aggregation is exactly equivalent to. The
oracle folds its pooled statistics into a second ``TemporalState`` with the
server's ``temporal_aggregate``; only the statistics and the solve differ.
``run_oracle`` pools the whole schedule that way and scores the one pooled
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .client import ClientShard, add_noise, extract_payload
from .config import ExperimentConfig
from .core import (
    ClassifierWeights,
    RandomMap,
    SpatialStatistics,
    apply_map,
    local_statistics,
    make_random_map,
    packed_frobenius,
    predict,
    unpack_upper,
)
from .data import (
    FeatureDataset,
    SynthSpec,
    TaskSchedule,
    dirichlet_partition,
    generate_synthetic,
    load_features,
    random_synth_spec,
    split_tasks,
)
from .errors import ConfigurationError, NumericalError, StsaError
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


def load_experiment_data(config: ExperimentConfig) -> tuple[FeatureDataset, FeatureDataset]:
    if config.data == "synthetic":
        return generate_synthetic(synth_spec_from_config(config))
    train = load_features(config.train_path)
    test = load_features(config.test_path)
    for role, dataset in (("train", train), ("test", test)):
        if dataset.role != role:
            raise ConfigurationError(f"{role}_path holds a {dataset.role} split, not a {role} split")
    if train.class_count != test.class_count:
        raise ConfigurationError(
            f"train declares {train.class_count} classes, test {test.class_count}"
        )
    if train.features.shape[1] != test.features.shape[1]:
        raise ConfigurationError(
            f"train features have {train.features.shape[1]} columns, "
            f"test features {test.features.shape[1]}"
        )
    return train, test


def make_schedule(config: ExperimentConfig, class_count: int) -> TaskSchedule:
    shuffle_seed = (
        derive_seed(config.seed, "class-order") if config.shuffle_classes else None
    )
    return split_tasks(class_count, config.T, config.first_task_classes, shuffle_seed)


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a matrix, or of the symmetric one a 1-D ``a`` packs."""
    return packed_frobenius(a) if a.ndim == 1 else float(np.linalg.norm(a, "fro"))


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


def task_test_rows(schedule: TaskSchedule, test_labels: np.ndarray) -> list[np.ndarray]:
    """Each task's test rows, in schedule order.

    A task with no test rows would score an accuracy of nothing, so it is a
    ConfigurationError that names the task.
    """
    rows = [np.flatnonzero(np.isin(test_labels, task)) for task in schedule.tasks]
    for tau, (task, task_rows) in enumerate(zip(schedule.tasks, rows), start=1):
        if task_rows.size == 0:
            raise ConfigurationError(
                f"task {tau} (classes {list(task)}) has no test rows to evaluate"
            )
    return rows


def task_accuracy(
    weights: ClassifierWeights,
    rmap: RandomMap,
    test: FeatureDataset,
    rows: np.ndarray,
) -> float:
    """Top-1 accuracy on the given raw test rows, of which there is at least one.

    Only these rows are mapped, and their mapped block goes on return, so a
    caller that scores one task at a time holds one task's mapped rows at most.
    """
    mapped = apply_map(rmap, test.features[rows])
    return float(np.mean(predict(weights, mapped) == test.labels[rows]))


def centralized_oracle(pooled: TemporalState, gamma: float) -> ClassifierWeights:
    """Ridge solution of statistics pooled with access to all data.

    This is the equivalence reference for the federated-incremental path, and
    mirrors ``update_classifier``: ``pooled`` is the oracle's own
    ``TemporalState``, which ``_pool_task`` folds with ``temporal_aggregate``,
    and the weights' class ids are its class ids. The regularized normal
    equations are solved with a plain LU solve, a route independent of the
    SPD factorization used by the aggregation path; a singular system is a
    NumericalError.
    """
    if not pooled.class_ids:
        raise ConfigurationError("the oracle needs at least one class")
    system = unpack_upper(pooled.gram_acc, pooled.corr_acc.shape[0])
    system[np.diag_indices(system.shape[0])] += gamma
    try:
        weights = np.linalg.solve(system, pooled.corr_acc)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"the oracle's pooled system G + gamma I is singular: {exc}") from exc
    return ClassifierWeights(weights=weights, class_ids=pooled.class_ids)


def _pool_task(
    pooled: TemporalState,
    rmap: RandomMap,
    train: FeatureDataset,
    task_idx: np.ndarray,
    task_classes: Sequence[int],
) -> TemporalState:
    """The oracle's state with one more task folded in.

    The task's training rows ``task_idx`` are mapped and pooled by one
    ``local_statistics`` call, with no client split, and folded into
    ``pooled`` by the server's own ``temporal_aggregate``, which consumes it.
    """
    task = local_statistics(
        apply_map(rmap, train.features[task_idx]), train.labels[task_idx], task_classes
    )
    return temporal_aggregate(pooled, task.gram, task.corr, task_classes)


def _setup(
    config: ExperimentConfig,
) -> tuple[FeatureDataset, FeatureDataset, TaskSchedule, RandomMap, list[np.ndarray]]:
    """The run's data, task schedule, random map and per-task test rows.

    ``config`` was checked when it was built, so nothing here re-checks it.
    """
    train, test = load_experiment_data(config)
    schedule = make_schedule(config, train.class_count)
    rmap = experiment_map(config, train.features.shape[1])
    return train, test, schedule, rmap, task_test_rows(schedule, test.labels)


def run_oracle(config: ExperimentConfig) -> OracleReport:
    """Pool the whole schedule, one task at a time, and score the pooled classifier."""
    train, test, schedule, rmap, test_rows = _setup(config)
    pooled = TemporalState.initial(rmap.output_dim)
    for task in schedule.tasks:
        pooled = _pool_task(
            pooled, rmap, train, np.flatnonzero(np.isin(train.labels, task)), task
        )
    weights = centralized_oracle(pooled, config.gamma)
    return OracleReport(
        accuracies=tuple(task_accuracy(weights, rmap, test, rows) for rows in test_rows)
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full federated class-incremental loop for one config."""
    train, test, schedule, rmap, test_rows = _setup(config)

    state = TemporalState.initial(rmap.output_dim)
    ledger = CommLedger()

    acc_rows: list[tuple[float, ...]] = []
    oracle_deltas: list[StageOracleDelta] | None = [] if config.oracle_check else None
    # The oracle's own state, over tasks 1..t.
    pooled = TemporalState.initial(rmap.output_dim) if config.oracle_check else None

    for t in range(1, schedule.stages + 1):
        task_classes = schedule.tasks[t - 1]
        c_t = len(task_classes)
        task_idx = np.flatnonzero(np.isin(train.labels, task_classes))
        parts = dirichlet_partition(
            train.labels[task_idx],
            config.K,
            config.beta,
            derive_seed(config.seed, f"partition/stage={t}"),
        )
        client_rows = [task_idx[p] for p in parts]

        client = None  # the client computing its upload, for error context

        def uploads():
            """Each client's upload in client order, made when the server asks."""
            nonlocal client
            for k in range(config.K):
                client = k
                shard = ClientShard(
                    client_id=k,
                    task_id=t,
                    features=train.features[client_rows[k]],
                    labels=train.labels[client_rows[k]],
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

        try:
            agg = spatial_aggregate(uploads(), task_classes, config.K)
            # Both modes fold a packed stage gram; efficient-mode records carry none.
            gram = agg.gram if agg.gram is not None else estimate_gram(agg.records, task_classes)
            state = temporal_aggregate(state, gram, agg.corr, task_classes)
            del agg, gram  # the state holds the stage's sums; free them before the solve
            weights = update_classifier(state, config.gamma)
            acc_rows.append(
                tuple(task_accuracy(weights, rmap, test, rows) for rows in test_rows[:t])
            )
            if config.oracle_check:
                pooled = _pool_task(pooled, rmap, train, task_idx, task_classes)
                w_star = centralized_oracle(pooled, config.gamma)
                oracle_deltas.append(
                    StageOracleDelta(
                        stage=t,
                        w_delta=_rel_frobenius(weights.weights, w_star.weights),
                        gram_delta=_rel_frobenius(state.gram_acc, pooled.gram_acc),
                        corr_delta=_rel_frobenius(state.corr_acc, pooled.corr_acc),
                    )
                )
        except StsaError as exc:
            where = f"stage {t}" if client is None else f"stage {t}, client {client}"
            # Prefix the message in place, so the error keeps its type and
            # attributes such as NumericalError.attempted_gammas.
            exc.args = (f"{where}: {exc}",)
            raise

    accuracy = AccuracyMatrix(rows=tuple(acc_rows))
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
    clients (fixed total n), estimates the gram from the first-order records
    and measures the squared Frobenius gap to the realized gram.
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
    c = spec.class_count
    m = spec.dim
    gram_true = np.zeros((m, m))
    corrs = np.zeros((k, m, c))
    counts = np.zeros((k, c), dtype=np.int64)
    n = spec.train_per_class
    for cls in range(c):
        x = spec.means[cls] + spec.noise_std * stream.standard_normal(n * m).reshape(n, m)
        gram_true += x.T @ x
        for j, rows in enumerate(np.array_split(np.arange(n), k)):
            corrs[j, :, cls] = x[rows].sum(axis=0)
            counts[j, cls] = rows.size
    records = [
        SpatialStatistics(gram=None, corr=corrs[j], label_freq=counts[j]) for j in range(k)
    ]
    g_hat = unpack_upper(estimate_gram(records, range(c)), m)
    return float(np.linalg.norm(g_hat - gram_true, "fro") ** 2)
