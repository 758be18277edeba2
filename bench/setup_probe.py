"""The set-up a fresh process pays before its first run: import osifl,
parse the workload's config and build the run inputs of each seed.

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG
"""
import sys

from osifl import build_run_inputs, parse_config

with open(sys.argv[1]) as fh:
    config = parse_config(fh.read())
for seed in config.seeds:
    build_run_inputs(config, seed)
