"""Golden digests: a pure refactor must leave every run output byte-identical.

Fifteen small ``run_scenario`` runs (seed 5, n=200, 100 draws) cover every
scenario, every conditional-prior family on ``interval_censored``, families
II-IV on ``binary_missing`` and the worker-pool path.  The CSV SHA-256 values
were recorded before the scenario table and the shared attempt driver were
introduced; the ``summary.json`` digests were recorded before the per-mode
pipeline in ``run_scenario``.  The ``gamma_hist.csv`` and ``summary.json``
digests of the eight runs with a prior family were recorded again when the
gammas became one step on the run's interval batch, and every digest of the
six ``interval_censored`` runs when its two processes moved from two split
streams to consecutive uniforms of the attempt stream (both deliberate
numeric changes); every other digest is as first recorded.  A change that
moves them on purpose must say so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from partialid.cli import RunConfig, run_scenario

# (scenario, prior family, workers) -> SHA-256 of each CSV the run writes
GOLDEN = [
    (('toy_analytic', None, 1), {
        'coverage.csv': '28e2b0a92bed55cd3fbdbc7b8aca19a34f81944c56122e39dc0e6c42df5167fc',
        'intervals.csv': '6a5705cd13bde2d3bf067d4f22f3c8fee772ac7b749d32116a70d2151068e9e1',
    }),
    (('interval_censored', None, 1), {
        'coverage.csv': '5b0afdebe698c5cb9a86614174b1cc734668be6ee15f713e241d8b92079ce7ce',
        'intervals.csv': 'b705c5af24af9ea842fa6f0c53d98c7f11537724e273ba33fdbf648e86839f6c',
    }),
    (('errors_in_variables', None, 1), {
        'coverage.csv': '265106477f40630a6633b82a520a4dc7bab6311c6221fe86cd41c8feec564f75',
        'intervals.csv': '25197239bf58ed65838af6d034948f37626de42ccd4135929950746dcdecf882',
    }),
    (('interval_regression', None, 1), {
        'coverage.csv': 'c52c9408f3a15125240236c27653e520894d0708c89fdb9b6508d42d4a77a873',
        'intervals.csv': '11bd3fc128c0b40a047731c20c90572610c37413161f16a31ab3453986632519',
    }),
    (('binary_missing', None, 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('interval_censored', 'I', 1), {
        'coverage.csv': '5b0afdebe698c5cb9a86614174b1cc734668be6ee15f713e241d8b92079ce7ce',
        'gamma_hist.csv': 'f91ff235225cd62194b876e4444c9189479711c15d6fa30762e31ce379f37831',
        'intervals.csv': 'b705c5af24af9ea842fa6f0c53d98c7f11537724e273ba33fdbf648e86839f6c',
    }),
    (('interval_censored', 'II', 1), {
        'coverage.csv': '5b0afdebe698c5cb9a86614174b1cc734668be6ee15f713e241d8b92079ce7ce',
        'gamma_hist.csv': '675a9cb6e4599292051dba862fde4175fbeaf6b9e3239c4b7cf3744ba90af078',
        'intervals.csv': 'b705c5af24af9ea842fa6f0c53d98c7f11537724e273ba33fdbf648e86839f6c',
    }),
    (('interval_censored', 'III', 1), {
        'coverage.csv': '5b0afdebe698c5cb9a86614174b1cc734668be6ee15f713e241d8b92079ce7ce',
        'gamma_hist.csv': '697da4b78b7a5f6f05f7406178a5085824b8cd71566814bd4d90d65b45c4c8cd',
        'intervals.csv': 'b705c5af24af9ea842fa6f0c53d98c7f11537724e273ba33fdbf648e86839f6c',
    }),
    (('interval_censored', 'IV', 1), {
        'coverage.csv': '5b0afdebe698c5cb9a86614174b1cc734668be6ee15f713e241d8b92079ce7ce',
        'gamma_hist.csv': 'dca257a85c9ac195fb1a2e791f51df466526134008832459d59248c5d1f1d29b',
        'intervals.csv': 'b705c5af24af9ea842fa6f0c53d98c7f11537724e273ba33fdbf648e86839f6c',
    }),
    (('binary_missing', 'II', 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'gamma_hist.csv': '2b071cdfc6fb9b32ac18532a42da26337166892bb0973d6a8feab3d5efdb4ef2',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('binary_missing', 'III', 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'gamma_hist.csv': '6d07318d14ee6674b9c1e67680f1ed52f35a90d896c3154589a15829c8bd60d1',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('binary_missing', 'IV', 1), {
        'coverage.csv': '8d5844c4cc2f29dd84459da42835a664f5bc0461ca746ab390c883230ea05bb8',
        'gamma_hist.csv': 'dab39ed88a398623cf7779d4f664ba44233df495cda0563cb0729bd05b3fc8e6',
        'intervals.csv': '90e49df43c4b8fabf4c5990f1fe28d8b1b5c4c2ffb7a2c4dfd735f1f23422af0',
    }),
    (('interval_censored', None, 2), {
        'coverage.csv': '5b0afdebe698c5cb9a86614174b1cc734668be6ee15f713e241d8b92079ce7ce',
        'intervals.csv': 'b705c5af24af9ea842fa6f0c53d98c7f11537724e273ba33fdbf648e86839f6c',
    }),
    (('interval_regression', None, 2), {
        'coverage.csv': 'c52c9408f3a15125240236c27653e520894d0708c89fdb9b6508d42d4a77a873',
        'intervals.csv': '11bd3fc128c0b40a047731c20c90572610c37413161f16a31ab3453986632519',
    }),
    (('errors_in_variables', 'II', 2), {
        'coverage.csv': '265106477f40630a6633b82a520a4dc7bab6311c6221fe86cd41c8feec564f75',
        'gamma_hist.csv': 'd50572e5760caf54382e663658cf4239c449772047276f1713ec15fc88178326',
        'intervals.csv': '25197239bf58ed65838af6d034948f37626de42ccd4135929950746dcdecf882',
    }),
]


# (scenario, prior family, workers) -> SHA-256 of the summary.json content,
# less the fields that vary by machine, serialized by json.dumps(sort_keys=True)
SUMMARY_GOLDEN = {
    ('toy_analytic', None, 1):
        '61b5f1455417b7ca9f3a45a1831011828f87feaa0b8a8ee2730fa280740f3570',
    ('interval_censored', None, 1):
        '4d25b04acf0c5fe81d598dd72df96e4a1a903f7832beed902c9bfdc6d914cc1c',
    ('errors_in_variables', None, 1):
        'a1e02ed02d645aa117ac3be7acfe49663bbcc2703dff074076130b008b867d0a',
    ('interval_regression', None, 1):
        '206ee5e2bf16dc4e5b55ac799381aba688946e6e0a8c62a2ba4311d2577bc802',
    ('binary_missing', None, 1):
        '706ace7d1fc8df681b33a65c43b6afdb1b2fa7e43cb2e38f91bba77e5bd30908',
    ('interval_censored', 'I', 1):
        'f8ca3b35d88d43d904198786812a8b3f80f00baeb1d9208bc1480ffe7f65d8ee',
    ('interval_censored', 'II', 1):
        '5ebcd90c2a7800a4f381188e1bd41414d5596603c17598e1aa3538eab375c81d',
    ('interval_censored', 'III', 1):
        'c76e1538e4e2a9cda33645d35b438e1a8ca05b9c766528b6c99201814d47c6e3',
    ('interval_censored', 'IV', 1):
        '6df9643493bbbb3d3b90f4886d732b2ff6db78fbc484746891952b9dc346d5f2',
    ('binary_missing', 'II', 1):
        '00f6c9c7f6581e920cbae498cb7c890d6542add24314a11cfa7d36b0b91a701e',
    ('binary_missing', 'III', 1):
        '4582f451ba32814def027da3203d7477e97a6df5aaa482f8da263cbe2f3ee212',
    ('binary_missing', 'IV', 1):
        '643a626a8eb4a05dd013d06fcc66e687e7ee7fd8f98c8f1a4f88a8b5952f3231',
    ('interval_censored', None, 2):
        '5c2a0d39bf59ad1f6a0c4c87ed10d2c824dbf36cbfb3f9d5de8cb7c70557aac6',
    ('interval_regression', None, 2):
        '8c7f224bb6e16d3796cdbf74698a45ee20659ad1da1d4828f314233668feb6af',
    ('errors_in_variables', 'II', 2):
        '256042261d5ab668e0fd69c394069de17b0884bb9e5bc550b5cdbd587fa909d1',
}

CASE_IDS = ["-".join(map(str, case)) for case, _ in GOLDEN]


def _run(case, out_dir):
    scenario, family, workers = case
    return run_scenario(RunConfig(
        scenario=scenario,
        n=None if scenario == "toy_analytic" else 200,
        n_draws=100,
        seed=5,
        prior_family=family,
        out_dir=str(out_dir),
        workers=workers,
    ))


@pytest.mark.parametrize("case, digests", GOLDEN, ids=CASE_IDS)
def test_csv_digests_unchanged(case, digests, tmp_path):
    assert _run(case, tmp_path).files == digests


@pytest.mark.parametrize("case", [case for case, _ in GOLDEN], ids=CASE_IDS)
def test_summary_digest_unchanged(case, tmp_path):
    report = _run(case, tmp_path)
    summary = json.loads((Path(report.out_dir) / "summary.json").read_text())
    # wall time, output path and library versions vary by machine
    del summary["wall_time_s"], summary["out_dir"], summary["diagnostics"]["versions"]
    text = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_GOLDEN[case]
