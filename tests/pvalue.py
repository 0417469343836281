"""The G-test p-value the rng and sampler tests share."""

import scipy.stats


def g_pvalue(counts, pmf, draws, support):
    """G-test p-value of integer draw counts against an exact pmf.

    Classes with expected count below 5 are pooled into one rest bucket,
    which also absorbs any observed value outside `support`.
    """
    obs, exp = [], []
    rest_obs = sum(c for v, c in counts.items() if v not in support)
    rest_exp = draws
    for v in support:
        e = draws * pmf(v)
        if e >= 5.0:
            obs.append(counts.get(v, 0))
            exp.append(e)
            rest_exp -= e
        else:
            rest_obs += counts.get(v, 0)
    if rest_exp >= 5.0:
        obs.append(rest_obs)
        exp.append(rest_exp)
    else:
        obs[-1] += rest_obs
        exp[-1] += rest_exp
    stat, p = scipy.stats.power_divergence(
        obs, exp, lambda_="log-likelihood"
    )
    return p
