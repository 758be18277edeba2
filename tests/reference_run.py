"""The reference run of the protocol, and the per-array references it is
built from: `reference_run` takes one (method, config, seed) straight
through the protocol, one head at a time, with no memo, stack or
lockstep. Clients upload their class means once, the server synthesizes
and trains the head with a dict-in, dict-out Adam, and OSIFL keeps the
top p rows of each class; the federated baselines average their clients'
heads round by round. Every operation is billed from the closed forms in
`osifl.ledgers`. The grid tests hold every memo, stack and lockstep
shortcut of the program to this run.

Under `surrogate` the server draws chain by chain. Under `ddpm` it draws
through the program's own `DiffusionModel.sample_chains`, so this run
does not check the factored reverse chain; the per-chain loop in
`tests/test_diffusion.py` holds it to rtol 1e-12
(`test_sample_chains_matches_the_per_chain_loop`).
"""
from typing import NamedTuple

import numpy as np

from osifl.config import build_run_inputs
from osifl.datagen import Batch, draw_base_pool
from osifl.diffusion import DENOISER_LEARNING_RATE, DiffusionModel, \
    denoise_loss_fixed, make_denoiser, make_schedule, make_surrogate
from osifl.encoder import build_client_message, make_encoder
from osifl.ledgers import CommsLedger, ComputeLedger, \
    encoder_forward_madds, head_backward_madds, head_forward_madds, \
    softmax_madds
from osifl.orchestrator import FEDERATED_METHODS, Method, RunReport, \
    evaluate, forgetting, parse_method
from osifl import orchestrator
from osifl.rng import stream
from osifl.ssr import exemplar_scores, top_p_indices
from osifl.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Classifier, \
    estimate_fisher, rows_for


def _params(clf, flat=None):
    """A dict view, keyed like `ce_loss_and_grads`'s gradients, of a flat
    vector in the head's layout; by default a copy of the head's own."""
    return dict(zip(("weights", "bias"),
                    clf.split(clf.flat.copy() if flat is None else flat)))


def _flat(params):
    """A head's dict of weights and bias as one flat vector."""
    return np.concatenate([params["weights"].ravel(), params["bias"]])


def _ref_zeros(params):
    """A fresh state for `_ref_adam_step`: (step, m, v)."""
    return (0, {k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()})


def _ref_adam_step(state, params, grads, learning_rate, weight_decay):
    """The pure dict-in, dict-out Adam step, kept as the bit-for-bit
    reference for `Adam.update`. Returns new params and a new state."""
    step, m_old, v_old = state
    t = step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k] + weight_decay * p
        m = b1 * m_old[k] + (1.0 - b1) * g
        v = b2 * v_old[k] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        new_params[k] = p - learning_rate * m_hat / (np.sqrt(v_hat)
                                                     + ADAM_EPS)
        new_m[k], new_v[k] = m, v
    return new_params, (t, new_m, new_v)


def _ref_ce_grads(params, emb, rows, coef):
    """Head gradients of sum_i coef[i] * nll_i, formed from fresh arrays
    one expression at a time: the reference for the trainer's in-place
    minibatch pass."""
    logits = emb @ params["weights"].T + params["bias"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(len(rows)), rows] -= 1.0
    delta *= coef[:, None]
    return {"weights": delta.T @ emb, "bias": delta.sum(axis=0)}


def _ref_train(clf, groups, cfg, rng, state, *, epochs, pull=None,
               ledger=None):
    """The trainer's minibatch loop over `groups`, each row weighted by
    1 / |its group| and each batch by N / |batch|, stepped by
    `_ref_adam_step`; `pull(params)` adds a penalty gradient. Bills one
    encoding of the rows and each step's head passes to `ledger`, if
    any. Returns the final head and the reference Adam state."""
    groups = [g for g in groups if len(g)]
    emb = clf.encoder.encode_batch(np.concatenate([g.x for g in groups]))
    rows = rows_for(clf, np.concatenate([g.y for g in groups]))
    sample_w = np.concatenate([np.full(len(g), 1.0 / len(g)) for g in groups])
    n, (n_out, dim_e) = len(rows), clf.weights.shape
    params = _params(clf)
    if ledger is not None:
        ledger.add("train_encoder",
                   encoder_forward_madds(n, dim_e, clf.encoder.dim_x))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads = _ref_ce_grads(params, emb[idx], rows[idx],
                                  n / len(idx) * sample_w[idx])
            if pull is not None:
                grads = {k: grads[k] + g for k, g in pull(params).items()}
            params, state = _ref_adam_step(state, params, grads,
                                           cfg.learning_rate,
                                           cfg.weight_decay)
            if ledger is not None:
                b = len(idx)
                ledger.add("train_head_forward",
                           head_forward_madds(b, n_out, dim_e))
                ledger.add("train_softmax", softmax_madds(b, n_out))
                ledger.add("train_head_backward",
                           head_backward_madds(b, n_out, dim_e))
    return params, state


def _ref_pad(d, n_new):
    """Append n_new zero rows to each array of a reference dict."""
    return {k: np.concatenate([a, np.zeros((n_new,) + a.shape[1:])])
            for k, a in d.items()}


def _ref_grow(params, state, n_new):
    """Append n_new zero rows to reference params and moments."""
    step, m, v = state
    return _ref_pad(params, n_new), (step, _ref_pad(m, n_new),
                                     _ref_pad(v, n_new))


def _anchor_pull(theta, fisher, lam):
    """The penalty gradient over dicts keyed like the head's parameters."""
    return lambda p: {k: lam * (2.0 * fisher[k]) * (p[k] - theta[k])
                      for k in p}


def denoise_loss_and_grads(denoiser, schedule, x0, cond, p_drop, rng):
    """One noise-prediction training step's loss and gradients, the
    per-array reference for a step of `pretrain`. Draws, per sample and
    in this order: a uniform timestep, the target noise, and the
    condition-drop coin (dropped conditions are zeroed)."""
    n = len(x0)
    z = rng.integers(1, schedule.num_steps + 1, size=n)
    eps = rng.standard_normal(x0.shape)
    drop = rng.random(n) < p_drop
    cond_used = np.where(drop[:, None], 0.0, cond)
    return denoise_loss_fixed(denoiser, schedule, x0, z, eps, cond_used)


def denoiser_forward_madds(den, rows: int) -> int:
    """A denoiser's forward pass on `rows` rows: out * in + out per affine
    layer, and one tanh per unit of both hidden layers."""
    d_in = den.dim_x + den.num_steps + den.dim_cond
    return rows * ((den.hidden * d_in + 2 * den.hidden)
                   + (den.hidden * den.hidden + 2 * den.hidden)
                   + (den.dim_x * den.hidden + den.dim_x))


def pretrain_reference(pool, encoder, cfg, seed, ledger=None):
    """`pretrain` as a per-array loop: each step's loss and gradients from
    `denoise_loss_and_grads` on one condition row per pool row, stepped
    by `_ref_adam_step`, and billed to `ledger`, if any: a forward pass
    and a backward pass of two per row and step."""
    den = make_denoiser(pool.x.shape[1], encoder.dim_e, cfg.diffusion_steps,
                        cfg.denoiser_hidden, seed)
    # Each row's condition: the mean embedding of its (class, domain)
    # pair's rows, encoded together in row order.
    pairs, table = list(zip(pool.y.tolist(), pool.domain.tolist())), {}
    for pair in set(pairs):
        rows = [i for i, other in enumerate(pairs) if other == pair]
        table[pair] = encoder.encode_batch(pool.x[rows]).mean(axis=0)
    cond = np.stack([table[pair] for pair in pairs])
    schedule = make_schedule(cfg.diffusion_steps, cfg.beta_min, cfg.beta_max)
    rng = stream(seed, "pretrain")
    params = {k: v.copy() for k, v in den.params.items()}
    state, losses = _ref_zeros(params), []
    for _ in range(cfg.pretrain_steps):
        idx = rng.integers(0, len(pool), size=cfg.pretrain_batch)
        loss, grads = denoise_loss_and_grads(den, schedule, pool.x[idx],
                                             cond[idx], cfg.p_drop, rng)
        params, state = _ref_adam_step(state, params, grads,
                                       DENOISER_LEARNING_RATE, 0.0)
        for k, v in params.items():
            den.params[k][...] = v
        losses.append(loss)
        if ledger is not None:
            ledger.add("diffusion_pretrain",
                       3 * denoiser_forward_madds(den, cfg.pretrain_batch))
    return DiffusionModel(schedule=schedule, denoiser=den,
                          trained=cfg.pretrain_steps > 0, loss_history=losses)


def _surrogate_per_chain(surro, conds, counts, rng):
    """The surrogate's chains one after another: each draws its own
    normals around the cluster mean of the pair nearest its condition."""
    world, out = surro.world, [np.zeros((0, surro.world.dim_x))]
    for cond, n in zip(conds, counts):
        if n == 0:
            continue
        dists = np.linalg.norm(surro.cond_matrix - cond, axis=1)
        mean = world.cluster_mean(*surro.pairs[int(np.argmin(dists))])
        out.append(mean + world.within_std * rng.standard_normal(
            (n, world.dim_x)))
    return np.concatenate(out)


def _select_per_class(classifier, candidates, p, score_by):
    """Reference: each class in turn, ascending, its rows copied out one
    by one, scored alone by `exemplar_scores` and cut by `top_p_indices`.
    Returns the kept row indices into `candidates`."""
    keep, labels = [], candidates.y.tolist()
    for k in sorted(set(labels)):
        rows = [i for i, y in enumerate(labels) if y == k]
        block = Batch(np.array([candidates.x[i] for i in rows]),
                      [k] * len(rows), [candidates.domain[i] for i in rows],
                      candidates.task)
        scores = exemplar_scores(classifier, block, score_by).tolist()
        keep += [rows[j] for j in top_p_indices(scores, p)]
    return np.array(keep, dtype=np.intp)


def snapshot(classes, flat, adam, anchor, kept, comms, compute):
    """A run's state after a task, comparable bit for bit: the head, its
    Adam (step, m, v) and anchor, kept exemplars and both ledgers."""
    return (tuple(classes), flat.tobytes(),
            adam and (adam[0], adam[1].tobytes(), adam[2].tobytes()),
            anchor and tuple(a.tobytes() for a in anchor),
            tuple((b.task, b.x.tobytes(), b.y.tobytes(), b.domain.tobytes())
                  for b in kept),
            dict(comms.floats_by_client), dict(comms.messages_by_client),
            dict(compute.madds_by_kind))


def record_states(monkeypatch) -> dict:
    """Wrap `orchestrator._check_head` to record, per (method, seed,
    config, task), the `snapshot` of each run it checks."""
    states, real = {}, orchestrator._check_head

    def recorded(state, task_id):
        clf, anchor, memory = state.classifier, state.anchor, state.memory
        states[state.method, state.seed, state.config, task_id] = snapshot(
            clf.classes, clf.flat, clf.adam,
            anchor and (anchor.theta, anchor.fisher),
            memory.replay_sets() if memory else [], state.comms, state.compute)
        return real(state, task_id)

    monkeypatch.setattr(orchestrator, "_check_head", recorded)
    return states


class Reference(NamedTuple):
    """A reference run: its report, its `snapshot` after each task, and
    the number of head-training calls it made."""

    report: RunReport
    snapshots: list
    heads: int


def _classifier(encoder, classes, params):
    clf = Classifier(encoder, classes)
    clf.weights[...], clf.bias[...] = params["weights"], params["bias"]
    return clf


def _sampler(cfg, world, encoder, seed, ledger):
    """The run's generator as a function of (conds, counts, w, rng) that
    returns each chain's rows in chain order, billing `ledger`."""
    pool = draw_base_pool(world, cfg.base_pool_total, seed)
    if cfg.generator == "surrogate":
        surro = make_surrogate(world, encoder, pool)
        return lambda conds, counts, w, rng: _surrogate_per_chain(
            surro, conds, counts, rng)
    model = pretrain_reference(pool, encoder, cfg, seed, ledger)

    def sample(conds, counts, w, rng):
        for n in counts:
            ledger.add("diffusion_sampling", cfg.diffusion_steps * 2
                       * denoiser_forward_madds(model.denoiser, n))
        return model.sample_chains(conds, counts, w, rng)
    return sample


def _synthesize(sample, messages, z, w, rng, task_id):
    """z rows per class named in the messages; row i of a class comes from
    its provider i mod the number of providers, one chain per (class,
    provider) in ascending class order."""
    providers = {}
    for m in messages:
        for k, mean in zip(m.classes.tolist(), m.means):
            providers.setdefault(k, []).append(mean)
    classes = sorted(providers)
    counts = [len(range(j, z, len(providers[k])))
              for k in classes for j in range(len(providers[k]))]
    drawn = sample(np.array([c for k in classes for c in providers[k]]),
                   counts, w, rng)
    chains = iter(np.split(drawn, np.cumsum(counts)[:-1]))
    rows = []
    for k in classes:
        mine = [next(chains) for _ in providers[k]]
        rows += [mine[i % len(mine)][i // len(mine)] for i in range(z)]
    x = np.array(rows).reshape(-1, drawn.shape[1])
    return Batch(x, np.repeat(classes, z), np.full(len(x), -1), task_id)


def _average(dicts, counts):
    """FedAvg's sample-count-weighted mean, key by key."""
    total = sum(counts)
    out = {k: np.zeros_like(a) for k, a in dicts[0].items()}
    for d, n in zip(dicts, counts):
        for k in out:
            out[k] += (n / total) * d[k]
    return out


def reference_run(method, cfg, seed) -> Reference:
    """Run `method` over the suite of (cfg, seed) straight through."""
    method = parse_method(method) if isinstance(method, str) else method
    world, suite, shards, test_sets = build_run_inputs(cfg, seed)
    encoder = make_encoder(cfg.dim_e, world.dim_x, seed)
    comms, compute, events = CommsLedger(), ComputeLedger(), []
    classes, adam, anchor, kept, history = [], None, None, [], []
    params = {"weights": np.zeros((0, cfg.dim_e)), "bias": np.zeros(0)}
    accuracy, after, snapshots, heads = [], [], [], 0
    if method not in FEDERATED_METHODS:
        sample = _sampler(cfg, world, encoder, seed, compute)

    def train(params, groups, rng, *, epochs=None, pull=None, adam=None):
        nonlocal heads
        heads += 1
        fresh = cfg.adam_reset_per_task or adam is None
        params, adam = _ref_train(
            _classifier(encoder, classes, params), groups, cfg, rng,
            _ref_zeros(params) if fresh else adam,
            epochs=cfg.epochs_per_task if epochs is None else epochs,
            pull=pull, ledger=compute)
        return params, None if cfg.adam_reset_per_task else adam

    def fisher(params, data):
        clf = _classifier(encoder, classes, params)
        return _params(clf, estimate_fisher(clf, data).fisher)

    for task in suite.tasks:
        t = task.task_id
        mine = [s for s in shards if s.task_id == t]
        new = [c for c in task.classes if c not in classes]
        classes += new
        params, adam = _ref_grow(params, adam, len(new)) if adam \
            else (_ref_pad(params, len(new)), None)
        if anchor is not None:
            anchor = tuple(_ref_pad(a, len(new)) for a in anchor)
        if method in FEDERATED_METHODS:
            pull = None
            if method is Method.FEDEWC and anchor and cfg.lambda_ewc > 0:
                pull = _anchor_pull(*anchor, cfg.lambda_ewc)
            for rnd in range(1, cfg.rounds + 1):
                if method is Method.FEDPROX and cfg.mu_prox > 0:
                    pull = _anchor_pull(params, {k: np.full_like(a, 0.5)
                                                 for k, a in params.items()},
                                        cfg.mu_prox)
                local = [train(params, [s.samples],
                               stream(seed, "fed", t, rnd, s.client_id),
                               epochs=cfg.local_epochs, pull=pull)[0]
                         for s in mine]
                for s in mine:
                    comms.record_upload(s.client_id, cfg.reported_model_params
                                        or _flat(params).size)
                params = _average(local, [len(s.samples) for s in mine])
                events.append(f"task{t}:round{rnd} clients="
                              f"{[s.client_id for s in mine]}")
            if method is Method.FEDEWC:
                anchor = (params, _average([fisher(params, s.samples)
                                            for s in mine],
                                           [len(s.samples) for s in mine]))
                events.append(f"task{t}:anchor_refresh")
        else:
            messages = [build_client_message(encoder, s) for s in mine]
            for m in messages:
                comms.record_upload(m.client_id, m.upload_floats)
                events.append(f"task{t}:upload client={m.client_id} "
                              f"floats={m.upload_floats}")
            data = _synthesize(sample, messages, cfg.z_per_class,
                               cfg.guidance_w, stream(seed, "synth", t), t)
            events.append(f"task{t}:synthesize n={len(data)}")
            rng, before, pull = stream(seed, "train", t), params, None
            history.append(data)
            groups = {Method.OSIFL: [data, *kept],
                      Method.OSCAR_CEILING: history}.get(method, [data])
            if method is Method.OSCAR_R and anchor and cfg.lambda_ewc > 0:
                pull = _anchor_pull(*anchor, cfg.lambda_ewc)
            if any(history) if method is Method.OSCAR_CEILING else data:
                params, adam = train(params, groups, rng, pull=pull,
                                     adam=adam)
            if method is Method.OSCAR_R and data:
                anchor = (params, fisher(params, data))
            events.append(f"task{t}:train method={method.value}")
            if method is Method.OSIFL:
                p = cfg.retain_per_class
                keep = []
                if p:
                    scorer = before if cfg.scoring_point == "pre_update" \
                        else params
                    keep = _select_per_class(
                        _classifier(encoder, classes, scorer), data, p,
                        cfg.score_by)
                    n, c = len(data), len(classes)
                    compute.add("exemplar_scoring",
                                encoder_forward_madds(n, cfg.dim_e, cfg.dim_x)
                                + head_forward_madds(n, c, cfg.dim_e)
                                + softmax_madds(n, c)
                                + head_backward_madds(n, c, cfg.dim_e))
                chosen = Batch(data.x[keep], data.y[keep], data.domain[keep],
                               t)
                kept += [chosen] if len(chosen) else []
                events.append(f"task{t}:select params={cfg.scoring_point} "
                              f"kept={len(chosen)}")
                events.append(f"task{t}:memory_update "
                              f"size={sum(map(len, kept))}")
        snapshots.append(snapshot(
            classes, _flat(params),
            adam and (adam[0], _flat(adam[1]), _flat(adam[2])),
            anchor and (_flat(anchor[0]), _flat(anchor[1])), kept, comms,
            compute))
        accs, avg, _ = evaluate(_classifier(encoder, classes, params), [
            test_sets[s.task_id] for s in suite.tasks if s.task_id <= t])
        accuracy.append(accs)
        after.append((avg, forgetting(accuracy)[1], comms.total_floats,
                      compute.total))
    avg_after, forgetting_after, uploads_after, madds_after = \
        map(list, zip(*after))
    forgetting_final, forgetting_mean = forgetting(accuracy)
    return Reference(RunReport(
        method=method.value, seed=int(seed), accuracy=accuracy,
        avg_after=avg_after, forgetting_after=forgetting_after,
        forgetting_final=forgetting_final, forgetting_mean=forgetting_mean,
        uploads_after=uploads_after, madds_after=madds_after,
        upload_floats_total=comms.total_floats, madds_total=compute.total,
        floats_by_client=dict(comms.floats_by_client),
        messages_by_client=dict(comms.messages_by_client),
        madds_by_kind=dict(compute.madds_by_kind), events=events,
        config_echo=cfg.canonical()), snapshots, heads)
