"""Independent oracles for expected values asserted in the tests.

Everything here is recomputed from first principles: screening angles from
their defining formula, outcome probabilities from direct trigonometry,
attack predictions by enumerating the full probability tree, and
uniform-angle averages by numerical quadrature. Nothing imports the
simulator, so these stay independent of the code paths they check.
"""

import math

from scipy.integrate import quad

PI = math.pi


def screening_set(n: int) -> list[float]:
    return [i * PI / (2 * (n + 1)) for i in range(1, n + 1)]


def collapse_probability(state: float, axis: float) -> float:
    """Born probability of collapsing onto `axis` (outcome bit 0)."""
    return math.cos(state - axis) ** 2


def integrity_bit(k: int, phi_star_index: int) -> int:
    """Expected AD bit on a matched analyzing round."""
    return k ^ phi_star_index ^ 1


def matched_pairs(n: int) -> list[tuple[float, float]]:
    """All (alpha_a, alpha_b) with alpha_a + alpha_b = pi/2."""
    angles = screening_set(n)
    return [(angles[i], angles[n - 1 - i]) for i in range(n)]


def matched_fraction(n: int) -> float:
    """Chance that two uniform screening indices form a matched pair."""
    return len(matched_pairs(n)) / n**2


def impersonation_qber_by_pair(n: int) -> list[float]:
    """Exact sifted-bit error rate of the three-leg intercept-resend, one
    entry per matched pair, in the order of Alice's screening index.

    Enumerates, for each matched (alpha_a, alpha_b) pair, the key bit,
    Eve's uniform screening guess, her readout of the returning state
    (-1)^k pi/4 + alpha_a in the guessed basis, and Bob's diagonal
    measurement of her relayed state (-1)^Oe pi/4 + alpha_b. An error
    occurs when Bob's outcome equals k (his key bit is the outcome's
    complement).
    """
    angles = screening_set(n)
    rates = []
    for alpha_a, alpha_b in matched_pairs(n):
        total = 0.0
        for k in (0, 1):
            state_back = (-1) ** k * PI / 4 + alpha_a
            for alpha_g in angles:
                p_read0 = collapse_probability(state_back, alpha_g + PI / 4)
                for readout, p_readout in ((0, p_read0), (1, 1.0 - p_read0)):
                    relayed = (-1) ** readout * PI / 4 + alpha_b
                    p_bob0 = collapse_probability(relayed, PI / 4)
                    total += p_readout * (p_bob0 if k == 0 else 1.0 - p_bob0)
        rates.append(total / (2 * n))
    return rates


def impersonation_qber(n: int) -> float:
    """Exact sifted-bit error rate of the three-leg intercept-resend: the
    mean of :func:`impersonation_qber_by_pair`, each pair being equally
    likely."""
    return sum(impersonation_qber_by_pair(n)) / n


def replayed_photon_violation(k: int, phi_star_index: int, alpha_a: float) -> float:
    """AD violation probability for a photon at (-1)^k pi/4 + alpha_a.

    That is the state of both the impersonation relay Alice encodes and
    the recaptured composite-attack probe when it reaches the AD.
    """
    state = (-1) ** k * PI / 4 + alpha_a
    expected = integrity_bit(k, phi_star_index)
    p0 = collapse_probability(state, PI / 4)
    return p0 if expected == 1 else 1.0 - p0


def composite_ad_violation(n: int) -> float:
    """Mean AD violation probability per tapped composite-attack probe."""
    total = 0.0
    count = 0
    for alpha_a, _ in matched_pairs(n):
        for k in (0, 1):
            for phi_star_index in (0, 1):
                total += replayed_photon_violation(k, phi_star_index, alpha_a)
                count += 1
    return total / count


impersonation_ad_violation = composite_ad_violation


def composite_pooled_ad_violation(n: int, mu: float) -> float:
    """Composite-attack violation rate over all AD clicks, Poisson source.

    Eve injects only when the pulse has >= 2 photons; the arriving pulse
    then holds (count - 1) legitimate photons plus the probe, so the mean
    arriving photon number stays mu and only the probe's clicks violate.
    """
    p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
    return p_multi * composite_ad_violation(n) / mu


def pns_trojan_rejection(
    n: int, mu: float, p_analyzing: float, transmission: float, loss: float,
    attack_probability: float, rounds: int,
) -> float:
    """Chance that a pns_trojan session of `rounds` rounds is rejected.

    A round rejects the session when Eve acts on it, its Poisson pulse
    holds two or more photons (one of which she re-injects as the probe),
    it is matched and analyzing, the probe survives the return leg's loss
    and is tapped into the AD (1 - t), and its click violates the
    integrity condition. Legitimate photons never violate it and the
    QBER is zero, so the session is accepted exactly when no round does.
    """
    p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
    q = (attack_probability * p_multi * matched_fraction(n) * p_analyzing
         * (1.0 - loss) * (1.0 - transmission) * composite_ad_violation(n))
    return 1.0 - (1.0 - q) ** rounds


def detection_share(mode: str, transmission: float, loss: float, mu: float) -> float:
    """Share of honest rounds in which Bob receives at least one photon.

    A photon reaches Bob when it survives the loss of all three legs,
    (1 - loss)^3, and passes the AD tap, t, independently of every other
    photon: a single photon does so with that product, and a Poisson(mu)
    pulse thinned by it is empty with probability exp(-mu (1 - loss)^3 t).
    """
    arrives = (1.0 - loss) ** 3 * transmission
    return arrives if mode == "single" else 1.0 - math.exp(-mu * arrives)


def standard_state_ad_violation(n: int) -> float:
    """Mean AD violation probability per tapped standard-state probe.

    The probe reaches the AD at -theta + (-1)^k pi/4 + alpha_a with theta
    uniform on [0, pi); averaged by quadrature.
    """
    total = 0.0
    count = 0
    for alpha_a, _ in matched_pairs(n):
        for k in (0, 1):
            for phi_star_index in (0, 1):
                expected = integrity_bit(k, phi_star_index)

                def violation(theta: float) -> float:
                    state = -theta + (-1) ** k * PI / 4 + alpha_a
                    p0 = collapse_probability(state, PI / 4)
                    return p0 if expected == 1 else 1.0 - p0

                total += quad(violation, 0.0, PI)[0] / PI
                count += 1
    return total / count


def probe_guess_accuracy(n: int, probe_angle: float = 0.0) -> float:
    """Accuracy of measuring a recaptured probe in (alpha_a +/- pi/4).

    Covers both the standard-state and the simple Trojan probes: the
    capture state is probe_angle - theta + (-1)^k pi/4 + alpha_a and the
    uniform theta erases everything.
    """
    angles = screening_set(n)
    total = 0.0
    count = 0
    for alpha_a in angles:
        for k in (0, 1):

            def correct(theta: float) -> float:
                state = probe_angle - theta + (-1) ** k * PI / 4 + alpha_a
                p0 = collapse_probability(state, alpha_a + PI / 4)
                return p0 if k == 0 else 1.0 - p0

            total += quad(correct, 0.0, PI)[0] / PI
            count += 1
    return total / count


def passive_pns_analyzing_accuracy(n: int) -> float:
    """Accuracy of the stored final-leg photon readout on analyzing rounds.

    Every term of the state phi* + (-1)^k pi/4 + alpha_a + alpha_b except
    k is public, so the readout in the matching basis is deterministic.
    """
    angles = screening_set(n)
    total = 0.0
    count = 0
    for alpha_a in angles:
        for alpha_b in angles:
            for phi_star in (0.0, PI / 2):
                for k in (0, 1):
                    state = phi_star + (-1) ** k * PI / 4 + alpha_a + alpha_b
                    axis = phi_star + alpha_a + alpha_b + PI / 4
                    p0 = collapse_probability(state, axis)
                    total += p0 if k == 0 else 1.0 - p0
                    count += 1
    return total / count
