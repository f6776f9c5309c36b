"""The per-member route the batched kernel step replaced: start state and
drift of one member drawn from its own stream, integrated by a plain RK4.

Tests compare the batch (`sampler._KernelStep` and every route built on
it) with this route bit for bit.
"""

import numpy as np

from lawbound import fields as F
from lawbound import sampler as SA


class MemberRealization:
    """The per-member route the batched kernel step replaced: start state
    and drift(x, tau) of one member, drawn from its own stream."""

    def __init__(self, spec, u, target, rng, pert_field):
        g = u.grid
        k_max = SA._noise_band(spec, g)

        def unit_noise():
            draw = F.random_divfree(g, spec.noise_exponent, k_max, seed=rng)
            return draw.values / np.sqrt(SA._expected_divfree_energy(
                g, spec.noise_exponent, k_max))

        y = target.values
        if spec.init == "gaussian" and spec.noise_scale > 0:
            start = u.values + spec.noise_scale * unit_noise()
        else:
            start = u.values.copy()
        if spec.kind == "pf-ode":
            s0, sm = spec.noise_scale, spec.pf_sigma_max
            start = y + np.sqrt(s0**2 + sm**2) * unit_noise()

            def drift(x, tau):
                sig = sm * (1.0 - tau)
                return -sm * sig / (s0**2 + sig**2) * (x - y)

        elif spec.kind == "perturbed-reference":
            chord = y + spec.noise_scale * unit_noise() - start

            def drift(x, tau):
                return chord

        else:
            chord = y - start
            amp = spec.perturbation if spec.kind == "rectified-flow" else 0.0

            def drift(x, tau):
                v = chord
                if amp:
                    v = v + amp * np.sin(2.0 * np.pi * tau) * pert_field
                return v

        self.start = start
        self.drift = drift


def member_integrate(real, tau_nodes, substeps):
    x = real.start.copy()
    out = np.empty((len(tau_nodes),) + x.shape)
    out[0] = x
    for c in range(len(tau_nodes) - 1):
        h = (tau_nodes[c + 1] - tau_nodes[c]) / substeps
        tau = tau_nodes[c]
        for _ in range(substeps):
            k1 = real.drift(x, tau)
            k2 = real.drift(x + 0.5 * h * k1, tau + 0.5 * h)
            k3 = real.drift(x + 0.5 * h * k2, tau + 0.5 * h)
            k4 = real.drift(x + h * k3, tau + h)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            tau += h
        out[c + 1] = x
    return out


def member_route(e, spec, ref, tau_nodes, seed, step=0, substeps=1):
    """Per-member realizations and their paths (N, C, m, *shape)."""
    pert = SA._kernel_perturbation_field(spec, e.grid, seed)
    reals = [MemberRealization(spec, e.member(i), ref(e.member(i)),
                               SA._member_rng(seed, i, step), pert)
             for i in range(e.size)]
    return reals, np.stack([member_integrate(r, tau_nodes, substeps)
                            for r in reals])


def sample_step(u, spec, reference_map, master_seed, member=0, step=0):
    """One internal-time path of one member on the stream of `member`:
    (output GridField, states (internal_steps+1, m, *shape), tau nodes).
    `reference_map` maps u (a GridField) to its target."""
    taus = np.linspace(0.0, 1.0, spec.internal_steps + 1)
    real = MemberRealization(
        spec, u, reference_map(u), SA._member_rng(master_seed, member, step),
        SA._kernel_perturbation_field(spec, u.grid, master_seed))
    states = member_integrate(real, taus, 1)
    return F.GridField(u.grid, states[-1]), states, taus
