"""One-shot incremental federated learning simulator.

Clients summarize their local data as per-class mean embeddings and
upload that summary exactly once. The server synthesizes stand-in
training data from those summaries (conditional diffusion model or a
Gaussian surrogate), trains a linear head over a frozen encoder task by
task, and retains a small exemplar memory chosen by gradient-norm
importance. Round-based federated baselines and communication/compute
ledgers run alongside for comparison.
"""
from .config import ExperimentConfig, build_run_inputs, parse_config, \
    serialize_config
from .datagen import CLASS_INCREMENTAL, DOMAIN_INCREMENTAL, Batch, \
    ClientShard, TaskSpec, TaskSuite, World, build_world, draw_base_pool, \
    draw_client_shards, make_task_suite
from .diffusion import Denoiser, GaussianSurrogate, NoiseSchedule, \
    forward_noise, guided_epsilon, load_model, make_denoiser, \
    make_schedule, make_surrogate, pretrain, save_model, \
    synthesize_task_data
from .encoder import ClientMessage, FrozenEncoder, build_client_message, \
    grouped_means, make_encoder, parse_message, serialize_message
from .errors import ConfigError, ProtocolError
from .ledgers import CommsLedger, ComputeLedger
from .orchestrator import Method, RunReport, ServerMemo, evaluate, \
    forgetting, report_rows, rows_to_csv, run_method, write_report_csv
from .rng import stream
from .ssr import ExemplarMemory, select_exemplars, top_p_indices
from .trainer import Adam, AnchorState, Classifier, ce_loss_and_grads, \
    estimate_fisher, ewc_penalty_and_grads, load_head, save_head, train

__version__ = "0.1.0"

__all__ = [
    "Adam", "AnchorState", "Batch", "CLASS_INCREMENTAL", "Classifier",
    "ClientMessage", "ClientShard", "CommsLedger", "ComputeLedger",
    "ConfigError", "DOMAIN_INCREMENTAL", "Denoiser", "ExemplarMemory",
    "ExperimentConfig", "FrozenEncoder", "GaussianSurrogate", "Method",
    "NoiseSchedule", "ProtocolError", "RunReport", "ServerMemo",
    "TaskSpec", "TaskSuite", "World", "build_client_message",
    "build_run_inputs", "build_world", "ce_loss_and_grads",
    "draw_base_pool", "draw_client_shards", "estimate_fisher", "evaluate",
    "ewc_penalty_and_grads", "forgetting", "forward_noise",
    "grouped_means", "guided_epsilon", "load_head", "load_model",
    "make_denoiser", "make_encoder", "make_schedule", "make_surrogate",
    "make_task_suite", "parse_config", "parse_message", "pretrain",
    "report_rows", "rows_to_csv", "run_method", "save_head", "save_model",
    "select_exemplars", "serialize_config", "serialize_message", "stream",
    "top_p_indices", "train", "write_report_csv",
]
