"""Errors-in-variables regression: the slope between direct and reverse fits.

When the regressor is observed with noise, the slope is only known to lie
between the direct regression coefficient Cov(Y,Z)/Var(Z) and the reverse one
Var(Y)/Cov(Y,Z).  A single nonparametric prior sits on the joint distribution
of (Y, Z); each process draw yields one realization of the bracket.  Draws with
a nonpositive Y-Z covariance violate the model's sign restriction and are
counted as skips rather than silently flipped.  The generating process has
slope 1 with unit noise everywhere, so the target bracket is [1/2, 2].
"""

import numpy as np

import partialid as pid
from partialid.scenarios import ROLE_DATA, attempt_stream

SEED = 2

cfg = pid.make_config("errors_in_variables", n=1000)
data = pid.generate_data(cfg, attempt_stream(SEED, ROLE_DATA, 0))
emp = np.cov(data.values.T, bias=True)
print(f"sample moments: cov(y,z)={emp[0, 1]:.4f}, var(z)={emp[1, 1]:.4f}, "
      f"var(y)={emp[0, 0]:.4f}")
print(f"sample bracket: [{emp[0, 1] / emp[1, 1]:.4f}, {emp[0, 0] / emp[0, 1]:.4f}]")

prior = pid.draw_set_batch(cfg, "prior", 1000, master_seed=SEED)
posterior = pid.draw_set_batch(cfg, "posterior", 1000, master_seed=SEED, dataset=data)
print(f"\nprior: {len(prior)} draws, {prior.skipped} sign-guard skips "
      f"({prior.skip_rate:.2%})")
print(f"posterior: {len(posterior)} draws, {posterior.skipped} skips")

pe = pid.point_estimate_set(posterior)
cr = pid.credible_region(posterior, alpha=0.95)
print(f"\ntrue set:          [{cfg.true_set.lo}, {cfg.true_set.hi}]")
print(f"point estimate:    [{pe.lo:.4f}, {pe.hi:.4f}]")
print(f"95% credible set:  [{cr.region.lo:.4f}, {cr.region.hi:.4f}]")

# peek at the functional itself on one fresh prior draw: the means of y, z and yz
from partialid.dirichlet import DirichletProcessSpec, process_means
from partialid.distributions import sample_mvnormal

spec = DirichletProcessSpec(
    cfg.hyper["n0"],
    lambda rng, size: sample_mvnormal(cfg.hyper["base_mean"], cfg.hyper["base_cov"],
                                      rng, size=size),
)
ey, ez, eyz = process_means(spec, pid.substream(SEED, 999),
                            lambda a: np.stack((a[..., 0], a[..., 1], a[..., 0] * a[..., 1]),
                                               axis=-2))
print(f"\none prior measure: cov(y,z) under it = {eyz - ey * ez:.4f}")
