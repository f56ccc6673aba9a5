"""Marginal sampling of the partially identified parameter itself.

Beyond the random interval, one can ask where inside the interval the
parameter is more likely.  That requires a conditional prior on the parameter
given the interval; four families are supported (midpoint-centered and
zero-centered truncated normals, flat, and a shifted Beta), each drawn by
inverse CDF.  The two-stage sampler draws the interval first, then the
parameter given the interval — the data act on the parameter only through
the interval draw, so prior-vs-posterior contrast shows up as concentration
onto the true set.
"""

import partialid as pid
from partialid.priors import default_prior_spec, histogram, marginal_sample
from partialid.scenarios import ROLE_DATA, attempt_stream

SEED = 4
SCENARIO = "interval_censored"


def ascii_hist(values, bins=24, lo=-4.0, hi=12.0, width=48):
    out = histogram(values, bins, (lo, hi))
    top = max(int(out.counts.max()), 1)
    lines = []
    for i, count in enumerate(out.counts):
        bar = "#" * int(round(width * count / top))
        lines.append(f"  {out.edges[i]:7.2f} | {bar}")
    if out.underflow or out.overflow:
        lines.append(f"  (outside range: {out.underflow} below, {out.overflow} above)")
    return "\n".join(lines)


cfg = pid.make_config(SCENARIO, n=1000)
data = pid.generate_data(cfg, attempt_stream(SEED, ROLE_DATA, 0))

for family in ("I", "II", "III", "IV"):
    spec = default_prior_spec(SCENARIO, family)
    prior = marginal_sample(cfg, spec, "prior", 1000, SEED)
    post = marginal_sample(cfg, spec, "posterior", 1000, SEED, dataset=data)
    print(f"\n=== family {family} "
          f"(tau0^2={spec.tau0_sq}, sigma0^2={spec.sigma0_sq}, p={spec.p}, q={spec.q})")
    print(f"prior:     mean {prior.gammas.mean():7.3f}, var {prior.gammas.var():7.3f}")
    print(f"posterior: mean {post.gammas.mean():7.3f}, var {post.gammas.var():7.3f}")

# the flat family shows the contrast most plainly
spec = default_prior_spec(SCENARIO, "III")
prior = marginal_sample(cfg, spec, "prior", 1000, SEED)
post = marginal_sample(cfg, spec, "posterior", 1000, SEED, dataset=data)
print("\nflat-family prior draws (true set is [0, 5]):")
print(ascii_hist(prior.gammas))
print("\nflat-family posterior draws:")
print(ascii_hist(post.gammas))
