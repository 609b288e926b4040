"""Independent brute-force oracles for the test suite.

Everything here enumerates {0,1}^n outcome by outcome, with itertools
or one numpy bit matrix, on purpose: these values must not share code
with the library kernels they check. `brute_masses` multiplies each
outcome's coordinate factors in index order, as `product_mass` does, so
the two agree bit for bit. Dimensions stay small enough that O(n 2^n)
per call is fine. The binomial oracles enumerate one-count vectors of
duplicate expert types instead, which reaches the enumeration cap.

The identities of the paper that the library does not compute live
here too: `min_identity`, `balanced_min_inequality_gap`,
`complement_symmetry_check` and `tensorization_gap`. So do the two
prior-art pairs `manino_bounds` and `potential_bounds`, which the
library reports only as `full_report` fields, and so does
`column_scores`, which adds a rule's weights one vote at a time: the
reference for the byte-table scoring kernel.

Three kinds of oracle share code with the library on purpose.
`tensorization_gap` calls the library's `min_mass`, so that the product
inequality it measures exercises the exact kernel. `per_row_bit_rows`
checks a batch of vote vectors one `_check_bits` call per row, the
behaviour `decide_batch`'s vectorized check must reproduce. The pair of
whole-block Monte Carlo estimators at the end keep the block bodies that
drew each block in one array, and share the stream keying, the scoring
kernel and, for the overlap, the pair reduction with the library: they
pin how a block is drawn and reduced, not the statistics.
"""

import itertools
import math

import numpy as np


def outcomes(n):
    """All bit vectors of length n as tuples, lexicographic."""
    return list(itertools.product((0, 1), repeat=n))


def product_mass(p, bits):
    """Probability of one outcome under a product Bernoulli law."""
    m = 1.0
    for b, pi in zip(bits, p):
        m *= pi if b else 1.0 - pi
    return m


def brute_masses(p):
    """Outcome masses over all of {0,1}^n, aligned with outcomes(n)."""
    p = np.asarray(p, dtype=float)
    n = p.size
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(bits, p, 1.0 - p).prod(axis=1)


def brute_min_mass(p, q):
    return float(np.minimum(brute_masses(p), brute_masses(q)).sum())


def brute_tv(p, q):
    return 0.5 * float(np.abs(brute_masses(p) - brute_masses(q)).sum())


def brute_bhattacharyya(p, q):
    return float(np.sqrt(brute_masses(p) * brute_masses(q)).sum())


def count_masses(m, p):
    """Law of the vector of one-counts of expert types, one mass per vector.

    Type t has m[t] coordinates of rate p[t]; the mass of counts
    (k_1, ..., k_T) is prod_t comb(m_t, k_t) p_t^k_t (1 - p_t)^(m_t - k_t),
    the total mass of the points of the cube with those counts. All of
    those points have the same mass, so sums of min(P, Q) and |P - Q|
    over the cube are the same sums over count vectors. Each mass is an
    exact ratio of integers, with p_t = a / b as the float holds it,
    rounded once by the int / int division, so nothing overflows or
    underflows on the way.
    """
    numerators, denominator = [], 1
    for mt, pt in zip(m, p):
        a, b = float(pt).as_integer_ratio()
        numerators.append(count_numerators(mt, a, b))
        denominator *= b**mt
    return [math.prod(ns) / denominator for ns in itertools.product(*numerators)]


def count_numerators(m, a, b):
    """[comb(m, k) a^k (b - a)^(m - k) for k in 0..m], the exact integers.

    Built by N_(k+1) = N_k (m - k) a / ((k + 1) (b - a)), whose division
    is exact because both sides are integers. At a = b (rate 1) the ratio
    is undefined, and the direct form gives [0, ..., 0, a^m].
    """
    if a == b:
        return [math.comb(m, k) * a**k * (b - a) ** (m - k) for k in range(m + 1)]
    row = [(b - a) ** m]
    for k in range(m):
        row.append(row[-1] * (m - k) * a // ((k + 1) * (b - a)))
    return row


def binomial_min_mass(m, p, q):
    """sum over the cube of min(P, Q) for panels of duplicate expert types.

    m[t] coordinates have rate p[t] under P and q[t] under Q.
    """
    return math.fsum(map(min, count_masses(m, p), count_masses(m, q)))


def binomial_tv(m, p, q):
    """Total variation for the same panels as binomial_min_mass."""
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(count_masses(m, p), count_masses(m, q)))


def reduced_sums(r):
    """(sum_y min(a P'(y), b Q'(y)), spill + sum_y |a P'(y) - b Q'(y)|)
    for a reduced pair r of the library's exact._Reduced, enumerating the
    points y of its groups, each rate repeated m times, one by one."""
    p_masses = r.a * brute_masses(np.repeat(r.p, r.m))
    q_masses = r.b * brute_masses(np.repeat(r.q, r.m))
    return (float(np.minimum(p_masses, q_masses).sum()),
            r.spill + float(np.abs(p_masses - q_masses).sum()))


def conditional_laws(panel):
    """(law of votes given label 1, law given label 0) as parameter lists."""
    psi = [float(v) for v in panel.psi]
    eta_bar = [1.0 - float(v) for v in panel.eta]
    return psi, eta_bar


def bayes_risk(panel):
    """Minimum error of any rule on the panel's own biased problem.

    sum over x of min(p_y * mu(x), (1-p_y) * nu(x)), the pointwise best
    decision under the actual prior.
    """
    psi, eta_bar = conditional_laws(panel)
    mu = brute_masses(psi)
    nu = brute_masses(eta_bar)
    return float(np.minimum(panel.p_y * mu, (1.0 - panel.p_y) * nu).sum())


def rule_risk(panel, decide_fn):
    """Error of an arbitrary rule by direct summation of misclassified mass."""
    psi, eta_bar = conditional_laws(panel)
    mu = brute_masses(psi)
    nu = brute_masses(eta_bar)
    total = 0.0
    for bits, m, v in zip(outcomes(panel.n), mu, nu):
        if decide_fn(bits):
            total += (1.0 - panel.p_y) * v
        else:
            total += panel.p_y * m
    return total


def best_rule_risk(panel):
    """Minimum error over ALL 2^(2^n) deterministic rules, exhaustively."""
    psi, eta_bar = conditional_laws(panel)
    mu = brute_masses(psi)
    nu = brute_masses(eta_bar)
    p_y = panel.p_y
    best = math.inf
    for assignment in itertools.product((0, 1), repeat=1 << panel.n):
        err = 0.0
        for g, m, v in zip(assignment, mu, nu):
            err += (1.0 - p_y) * v if g else p_y * m
        best = min(best, err)
    return best


def brute_norm(diff, r):
    if r == math.inf:
        return float(np.max(np.abs(diff)))
    return float(np.sum(np.abs(diff) ** r) ** (1.0 / r))


def min_identity(u, v):
    """min(u, v) for positive u, v as sqrt(u v) exp(-|log(u / v)| / 2)."""
    return math.sqrt(u * v) * math.exp(-0.5 * abs(math.log(u / v)))


def balanced_min_inequality_gap(s, t):
    """Slack of min(s, 1-t) + min(t, 1-s) >= 2 min(u, 1-u) at u = (s+t)/2."""
    u = 0.5 * (s + t)
    return (min(s, 1.0 - t) + min(t, 1.0 - s)) - 2.0 * min(u, 1.0 - u)


def manino_bounds(p):
    """Manino et al.'s sandwich at symmetric interior rates p, one expert at a time:

        lower = 0.36 * 2^n sqrt(prod_i p_i (1 - p_i)) * exp(-||w||_2 / 2)
        upper = 0.50 * 2^n sqrt(prod_i p_i (1 - p_i)),   w_i = log(p_i / (1 - p_i))

    The paper's symmetric lower bound is the same lower end with 1/2 in
    place of 0.36.
    """
    root = math.prod(2.0 * math.sqrt(x * (1.0 - x)) for x in p)
    norm = math.sqrt(sum(math.log(x / (1.0 - x)) ** 2 for x in p))
    return 0.36 * root * math.exp(-0.5 * norm), 0.5 * root


def potential_bounds(p):
    """Berend and Kontorovich's committee-potential sandwich at symmetric
    interior rates p, the potential summed one expert at a time:

        lower = 3 / (4 (1 + exp(2 F + 4 sqrt(F))))
        upper = exp(-F / 2),   F = sum_i (p_i - 1/2) log(p_i / (1 - p_i))

    The lower end is taken in logs, so it underflows to 0 quietly where
    exp(2 F + 4 sqrt(F)) would overflow.
    """
    potential = math.fsum((x - 0.5) * math.log(x / (1.0 - x)) for x in p)
    t = 2.0 * potential + 4.0 * math.sqrt(potential)
    return 0.75 * math.exp(-t - math.log1p(math.exp(-t))), math.exp(-0.5 * potential)


def complement_symmetry_check(psi, eta, r):
    """(||Ber(psi) - Ber(1-eta)||_r, ||Ber(1-psi) - Ber(eta)||_r) over the
    outcome masses, for laws psi and eta. Flipping every coordinate swaps
    the two pairs, so the values agree."""
    direct = brute_masses(psi.p) - brute_masses(1.0 - eta.p)
    flipped = brute_masses(1.0 - psi.p) - brute_masses(eta.p)
    return brute_norm(direct, r), brute_norm(flipped, r)


def tensorization_gap(P, P_alt, Q, Q_alt):
    """min_mass(P x Q, P' x Q') - min_mass(P, P') min_mass(Q, Q').

    Nonnegative: taking minima block by block before summing can only
    lose mass. Calls the library's min_mass on purpose.
    """
    from votebounds import ProductBernoulli, min_mass

    joint = min_mass(ProductBernoulli(np.concatenate((P.p, Q.p))),
                     ProductBernoulli(np.concatenate((P_alt.p, Q_alt.p))))
    return joint - min_mass(P, P_alt) * min_mass(Q, Q_alt)


def min_score_margin(panel, build_rule_fn):
    """Smallest |score| over all outcomes; tie-freeness filter for suites."""
    rule = build_rule_fn(panel)
    return min(abs(rule.score(bits)) for bits in outcomes(panel.n))


def random_panel(rng, n, low=0.01, high=0.99, p_y=0.5, symmetric=False):
    from votebounds import ExpertPanel

    psi = rng.uniform(low, high, n)
    eta = psi.copy() if symmetric else rng.uniform(low, high, n)
    return ExpertPanel(psi=psi, eta=eta, p_y=p_y)


def per_row_bit_rows(rule, xs):
    """decide_batch's input check done one `_check_bits` call per row.

    Returns the bit lists, or raises the first bad row's ValidationError
    prefixed with `input {idx}: `.
    """
    from votebounds import ValidationError

    rows = []
    for idx, row in enumerate(xs):
        try:
            rows.append(rule._check_bits(row))
        except ValidationError as exc:
            raise ValidationError(f"input {idx}: {exc}") from None
    return rows


def whole_block_simulate_error(panel, trials, seed):
    """simulate_error drawing each block as one (m, n + 1) array.

    Returns (empirical_error, std_error).
    """
    from votebounds import build_rule
    from votebounds.montecarlo import BLOCK_SIZE, _block_generator

    rule = build_rule(panel)
    vote_one_prob_given_zero = 1.0 - panel.eta
    count = 0
    for b in range((trials + BLOCK_SIZE - 1) // BLOCK_SIZE):
        m = min(BLOCK_SIZE, trials - b * BLOCK_SIZE)
        u = _block_generator(seed, b).random((m, panel.n + 1))
        y = u[:, 0] < panel.p_y
        x = u[:, 1:] < np.where(y[:, None], panel.psi, vote_one_prob_given_zero)
        count += int(np.count_nonzero((rule._score_rows(x) >= 0.0) != y))
    p_hat = count / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def whole_block_estimate_min_mass(P, Q, trials, seed):
    """estimate_min_mass drawing each block of the reduced pair as one
    (m, n) array, with the ratio clipped at 1 after exp, not before."""
    from votebounds.exact import _reduce
    from votebounds.montecarlo import BLOCK_SIZE, _block_generator
    from votebounds.rule import DecisionRule

    r = _reduce(P, Q)
    if not r.m.size or min(r.a, r.b) == 0.0:
        return min(r.a, r.b), 0.0
    p, q = np.repeat(r.p, r.m), np.repeat(r.q, r.m)
    rule = DecisionRule(math.log(r.b) - math.log(r.a), np.log(q) - np.log(p),
                        np.log(1.0 - q) - np.log(1.0 - p))
    total = 0.0
    total_sq = 0.0
    for block in range((trials + BLOCK_SIZE - 1) // BLOCK_SIZE):
        m = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        x = _block_generator(seed, block).random((m, p.size)) < p
        log_lr = rule._score_packed(np.packbits(x, axis=1, bitorder="little").T, m)
        ratio = np.minimum(1.0, np.exp(log_lr))
        total += float(ratio.sum())
        total_sq += float(np.square(ratio).sum())
    estimate = total / trials
    variance = max(0.0, total_sq / trials - estimate * estimate)
    return r.a * estimate, r.a * math.sqrt(variance / trials)


def column_scores(x, offset, w1, w0):
    """offset + sum_i (w1[i] if x[r, i] else w0[i]) for each row r of bool
    x, added column by column in index order: the reference for the
    byte-table kernel rule._scores, which adds the same terms a byte of 8
    votes at a time."""
    s = np.full(x.shape[0], offset)
    term = np.empty(x.shape[0])
    for pair, col in zip(np.stack([w0, w1], axis=1), x.view(np.uint8).T):
        pair.take(col, out=term, mode="clip")  # 0/1 need no bounds check
        s += term
    return s
