"""Per-block reference path that the batched Monte Carlo engine is checked
against: one block of channels at a time, the transmit vector built
explicitly, and the inter-group term regenerated and cancelled as each
receiver would.  Channels are plain (G, Q, L) arrays `h` and `h_hat`."""

import numpy as np

from vccsat.channel import estimation_noise


def sample_block(config, rng):
    """One block of true channels and their CSIT estimates."""
    h = config.shadowing.draw(rng, config.l_antennas, (config.g_groups, config.q_mux))
    return h, h + estimation_noise(h.shape, config.sigma_e2, rng)


def effective_sum_rate(sinr, config) -> float:
    """xi * sum log2(1 + SINR) over all users, in bits/s/Hz."""
    return config.xi * float(np.log2(1.0 + sinr).sum())


def transmit_vector(h_hat, alpha2, symbols):
    """Superimposed transmit signal x = alpha * sum_g Hhat_g^H s_g, shape (L,)."""
    return np.sqrt(alpha2) * np.einsum("gql,gq->l", h_hat.conj(), symbols)


def inter_group_component(h, h_hat, alpha2, symbols):
    """The term each receiver regenerates from cached symbols and composite
    CSI: alpha * h_gb^T sum_{f != g} Hhat_f^H s_f, shape (G, Q)."""
    # contrib[g, b, f] = h_gb^T Hhat_f^H s_f
    contrib = np.einsum("gbl,fcl,fc->gbf", h, h_hat.conj(), symbols)
    return np.sqrt(alpha2) * (contrib.sum(axis=2) - np.einsum("gbg->gb", contrib))


def full_signal_roundtrip(h, h_hat, alpha2, symbols, noise):
    """Push x through every user's channel and subtract the regenerated
    inter-group term: the post-cancellation signals, shape (G, Q).  With one
    group the subtracted term is exactly zero."""
    y = np.einsum("gbl,l->gb", h, transmit_vector(h_hat, alpha2, symbols)) + noise
    return y - inter_group_component(h, h_hat, alpha2, symbols)


def intra_group_reference(h, h_hat, alpha2, symbols, noise):
    """Desired-plus-intra-group signal computed term by term, which
    `full_signal_roundtrip` must reproduce to rounding error."""
    # own-group composite coefficients h_gb^T hhat_gc^*
    coeff = np.einsum("gbl,gcl->gbc", h, h_hat.conj())
    return np.sqrt(alpha2) * np.einsum("gbc,gc->gb", coeff, symbols) + noise


def moment_samples(config, rng, n):
    """n independent samples of the three moments, shape (3, n): ||h||^4 of
    one user, |h^T hhat'^*|^2 with the estimate of a second, independent
    user (xi2), and |h^T hhat^*|^2 with the user's own estimate (desired)."""
    h, h_other = config.shadowing.draw(rng, config.l_antennas, (2, n))
    h_hat_own = h + estimation_noise(h.shape, config.sigma_e2, rng)
    h_hat_other = h_other + estimation_noise(h.shape, config.sigma_e2, rng)
    norm2 = (np.abs(h) ** 2).sum(axis=1)
    own = np.einsum("nl,nl->n", h, h_hat_own.conj())
    cross = np.einsum("nl,nl->n", h, h_hat_other.conj())
    return np.stack([norm2 * norm2, np.abs(cross) ** 2, np.abs(own) ** 2])
