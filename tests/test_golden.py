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
streams to consecutive uniforms of the attempt stream, and again when each
process drew its prior-side mean as one normal variate from its exact law in
place of K atoms, and every digest of the four ``binary_missing`` runs when
its interval [p1, p1 + p3] became two Beta draws in place of a three-cell
Dirichlet draw, and its ``intervals.csv`` and ``summary.json`` digests again
when those two Betas were drawn through a quantile table
(``distributions.BetaQuantile``, since replaced by the same table in
``distributions.beta_quantile``) in place of ``betaincinv``, and every digest
of the ten runs with a posterior Dirichlet-process draw (interval_censored,
errors_in_variables and interval_regression) when a posterior draw's
truncation level became that of the mass it discards,
``choose_truncation_level(n0, n)`` (all deliberate numeric changes); every
other digest is as first recorded.  A change that
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
        'coverage.csv': '608b4babb8395b0e613eff8fe4d7387342a42af85cc68ce4ec957e4e1f90fbd7',
        'intervals.csv': '1fbbebc7cb62b8ca7711fb775db266e55eec9caf904e61d7f700113472783999',
    }),
    (('errors_in_variables', None, 1), {
        'coverage.csv': '0bc00d9ebd0bc6f7e8c64ecdf46f7cfce2b000c12fd9f47028085cf5f85af7ee',
        'intervals.csv': '4e1421a6aa5e7f0285842a53e2f33b0c324196ea9c4ceb1d641a9e8e86cec7b2',
    }),
    (('interval_regression', None, 1), {
        'coverage.csv': '65b05b2064243da600cdde8586491a3d6f6af730e5de7c933ba3f1dfb81538c1',
        'intervals.csv': '059dee319af61d8f6fb35f017fb7c646c8bc2d2cfe5364656f95f14d79731a2a',
    }),
    (('binary_missing', None, 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('interval_censored', 'I', 1), {
        'coverage.csv': '608b4babb8395b0e613eff8fe4d7387342a42af85cc68ce4ec957e4e1f90fbd7',
        'gamma_hist.csv': '6a158b91b6387404363cce4de7b3bd64295dfe05d4458d8cca7455cb8c052d3b',
        'intervals.csv': '1fbbebc7cb62b8ca7711fb775db266e55eec9caf904e61d7f700113472783999',
    }),
    (('interval_censored', 'II', 1), {
        'coverage.csv': '608b4babb8395b0e613eff8fe4d7387342a42af85cc68ce4ec957e4e1f90fbd7',
        'gamma_hist.csv': 'e090faa05c12844c1bb273756979bb189868b77b0e049a2af138f497a6f91227',
        'intervals.csv': '1fbbebc7cb62b8ca7711fb775db266e55eec9caf904e61d7f700113472783999',
    }),
    (('interval_censored', 'III', 1), {
        'coverage.csv': '608b4babb8395b0e613eff8fe4d7387342a42af85cc68ce4ec957e4e1f90fbd7',
        'gamma_hist.csv': '33849158759c38dd8f1a96128c60294920c6728450532fea7200b1e07362285d',
        'intervals.csv': '1fbbebc7cb62b8ca7711fb775db266e55eec9caf904e61d7f700113472783999',
    }),
    (('interval_censored', 'IV', 1), {
        'coverage.csv': '608b4babb8395b0e613eff8fe4d7387342a42af85cc68ce4ec957e4e1f90fbd7',
        'gamma_hist.csv': '40b71604884a5794b32e996ab9eefc675ff4fc82ee49f1394f9d39589409dc32',
        'intervals.csv': '1fbbebc7cb62b8ca7711fb775db266e55eec9caf904e61d7f700113472783999',
    }),
    (('binary_missing', 'II', 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'gamma_hist.csv': '296c95756434ae8b8cc271228aee4a7c3fc40d9c5bb6cbb1cec1a72b1dbdcbd0',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('binary_missing', 'III', 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'gamma_hist.csv': '884804b5eb46ba1d9e13ad8f3149e07dcd3cbcb90974599a3b759a9255a2d418',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('binary_missing', 'IV', 1), {
        'coverage.csv': '926f4c6b2c984d7389ab7a8319abe17db9fd7869d078aeb94151cf7886f698e2',
        'gamma_hist.csv': 'b492187d392a0235fbf2898357cd7e228e36ec25f25d6faf227652210ddb81de',
        'intervals.csv': 'be8a44663212262d847dac7f0804e42f15a22968a15d896db5f899b74b44dabc',
    }),
    (('interval_censored', None, 2), {
        'coverage.csv': '608b4babb8395b0e613eff8fe4d7387342a42af85cc68ce4ec957e4e1f90fbd7',
        'intervals.csv': '1fbbebc7cb62b8ca7711fb775db266e55eec9caf904e61d7f700113472783999',
    }),
    (('interval_regression', None, 2), {
        'coverage.csv': '65b05b2064243da600cdde8586491a3d6f6af730e5de7c933ba3f1dfb81538c1',
        'intervals.csv': '059dee319af61d8f6fb35f017fb7c646c8bc2d2cfe5364656f95f14d79731a2a',
    }),
    (('errors_in_variables', 'II', 2), {
        'coverage.csv': '0bc00d9ebd0bc6f7e8c64ecdf46f7cfce2b000c12fd9f47028085cf5f85af7ee',
        'gamma_hist.csv': '669e4ec3da58d7779810c4524ac7c1d1d1535ec5efe480730fdaf7daff542e46',
        'intervals.csv': '4e1421a6aa5e7f0285842a53e2f33b0c324196ea9c4ceb1d641a9e8e86cec7b2',
    }),
]


# (scenario, prior family, workers) -> SHA-256 of the summary.json content,
# less the fields that vary by machine, serialized by json.dumps(sort_keys=True)
SUMMARY_GOLDEN = {
    ('toy_analytic', None, 1):
        '61b5f1455417b7ca9f3a45a1831011828f87feaa0b8a8ee2730fa280740f3570',
    ('interval_censored', None, 1):
        'b41a298e23aa1072b0002910a8c869d15eb98c7f817b9b01d4c9e7c647fe8e9c',
    ('errors_in_variables', None, 1):
        'b40d04048297ce91574baadde0ddf5f8304966d4d62ff3629b91581741207f0d',
    ('interval_regression', None, 1):
        '1ec0de8c988951450c4f51c8a584e45caabe461ca0ec6815c44387cd700c4994',
    ('binary_missing', None, 1):
        'd397b54f213fd24a15dd940066ed55a2994d96badcd3c9ef59905f13b661295d',
    ('interval_censored', 'I', 1):
        'c1cf934c489a7cd37157e4e74f569378c9cb5e10b77d26993ad2f55ac9a095cf',
    ('interval_censored', 'II', 1):
        '62ee1b22cd9964089659920e09f1740b277fff7dc17d7fde6463402468fa0dd8',
    ('interval_censored', 'III', 1):
        'c4590c1fbc10bb5bb67f65ea8497946eacc102f2dc6d0dc9b7b0cf6545d83601',
    ('interval_censored', 'IV', 1):
        '9220d4990fe36024a1d18b65c0864f00b0792e43e44888e00bbfe5733b07deab',
    ('binary_missing', 'II', 1):
        '4ede31a26a7f82ee6603e431ea6ee7008e4df4b74d4f7ab3ee6c851a2de2cace',
    ('binary_missing', 'III', 1):
        'ed3562e37f47f127e7a4c4f22394c591c2f66ec70de7987f5507bb81fe795107',
    ('binary_missing', 'IV', 1):
        '9bb44d8258d821d14b0e484c50e05988c4e50150f9a7228c50c963a5f949fd2f',
    ('interval_censored', None, 2):
        '2f07fcd91e4464a87db0a1b4af97790253c02a494dabc9c511cfd87fec43480a',
    ('interval_regression', None, 2):
        'ae63c799e862a12e852efa26b866108431afba49abd984f71af999a65668b207',
    ('errors_in_variables', 'II', 2):
        'cefa98434231c1392397083e42b487ec6693cb67b397861c41bbc41caf4b863d',
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
