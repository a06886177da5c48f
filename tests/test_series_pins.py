"""Pinned results of every series kernel route.

Each entry maps a case to the float.hex of the kernel it returns or to the
kind of its refusal, so that a change to the shared summation protocol
which moves any result by one ulp, or flips any accept/refuse decision,
fails here. Kernel cases use the CLI geometry (R1 = 1, R2 = 4), its 50
solved roots, the reference fluid (mu = 1.48, rho = 1260) and the default
SeriesControls; a case is (route, quantity, beta, alpha1, t, mode) with
1-based modes. Double-series refusals at beta < 1 also pin terms_used,
which counts (j, k) pairs.

Three double-series velocity cases at alpha1 = 11.34 mark the edges of
the term cap (10 000 pairs; diagonal 140 ends at pair 10 011):
beta = 0.3, t = 0.5, mode 41 refuses at the cap; beta = 0.9, t = 1,
mode 10 goes quiet on diagonal 140 and is accepted; beta = 0.3, t = 1,
mode 32 goes quiet on diagonal 140 and is refused by the cancellation
limit.
"""

from gsgflow import FluidParams, GFunctionArgs, NonConvergenceError, SeriesControls, find_roots, g_function
from gsgflow import solution

ROOTS = find_roots(1.0, 4.0, 50).roots


def refusal_kind(exc: NonConvergenceError) -> str:
    message = str(exc)
    if "budget" in message:
        return "budget"
    if "degenerate" in message:
        return "degenerate"
    if "cancellation exceeds" in message:
        return "cancellation"
    return "cap"


def kernel_outcome(route, quantity, beta, alpha1, t, mode) -> str:
    params = FluidParams(mu=1.48, alpha1=alpha1, rho=1260.0, beta=beta)
    x2 = float(ROOTS[mode - 1] ** 2)
    kernel = solution._double_series_kernel if route == "series" else solution._gseries_kernel
    try:
        value = kernel(params.nu * x2, params.alpha * x2, beta, t, SeriesControls(),
                       stress=quantity == "stress", mu=params.mu, alpha1=params.alpha1)
    except NonConvergenceError as exc:
        kind = refusal_kind(exc)
        return f"{kind}/{exc.terms_used}" if route == "series" and beta < 1.0 else kind
    return value.hex()


def g_outcome(args) -> str:
    try:
        return g_function(GFunctionArgs(*args)).hex()
    except NonConvergenceError as exc:
        return refusal_kind(exc)


KERNEL_PINS = {
    ('series', 'velocity', 0.3, 11.34, 0.1, 1): '0x1.98fb79c83b277p-4',
    ('series', 'velocity', 0.3, 11.34, 0.1, 3): '0x1.949f69a92d5ecp-4',
    ('series', 'velocity', 0.3, 11.34, 0.1, 6): '0x1.867fc3cebc625p-4',
    ('series', 'velocity', 0.3, 11.34, 0.1, 10): '0x1.680582bf28b80p-4',
    ('series', 'velocity', 0.3, 11.34, 0.1, 20): '0x1.0237582f9a267p-4',
    ('series', 'velocity', 0.3, 11.34, 0.1, 32): '0x1.378c67da96dafp-5',
    ('series', 'velocity', 0.3, 11.34, 0.1, 41): '0x1.aec58b10bf2c4p-6',
    ('series', 'velocity', 0.3, 11.34, 0.5, 1): '0x1.fd8d9fce3b41fp-2',
    ('series', 'velocity', 0.3, 11.34, 0.5, 3): '0x1.eca3b4c3d7d14p-2',
    ('series', 'velocity', 0.3, 11.34, 0.5, 6): '0x1.b9e5f58f31466p-2',
    ('series', 'velocity', 0.3, 11.34, 0.5, 10): '0x1.5ebbd82450ea5p-2',
    ('series', 'velocity', 0.3, 11.34, 0.5, 20): '0x1.4d05194951fbbp-3',
    ('series', 'velocity', 0.3, 11.34, 0.5, 32): '0x1.2f8b6e975b655p-4',
    ('series', 'velocity', 0.3, 11.34, 0.5, 41): 'cap/10011',
    ('series', 'velocity', 0.3, 11.34, 1.0, 1): '0x1.fbf7302cf23f8p-1',
    ('series', 'velocity', 0.3, 11.34, 1.0, 3): '0x1.e09da60dcd0b5p-1',
    ('series', 'velocity', 0.3, 11.34, 1.0, 6): '0x1.9413635cb0713p-1',
    ('series', 'velocity', 0.3, 11.34, 1.0, 10): '0x1.1e080497063eap-1',
    ('series', 'velocity', 0.3, 11.34, 1.0, 20): '0x1.bcbbe1175ceb4p-3',
    ('series', 'velocity', 0.3, 11.34, 1.0, 32): 'cancellation/10011',
    ('series', 'velocity', 0.3, 11.34, 1.0, 41): 'budget/0',
    ('series', 'velocity', 0.3, 11.34, 5.0, 1): '0x1.37e44ece193f5p+2',
    ('series', 'velocity', 0.3, 11.34, 5.0, 3): '0x1.0679da226228cp+2',
    ('series', 'velocity', 0.3, 11.34, 5.0, 6): '0x1.48864c5c46f8bp+1',
    ('series', 'velocity', 0.3, 11.34, 5.0, 10): '0x1.46c38f9b4013ep+0',
    ('series', 'velocity', 0.3, 11.34, 5.0, 20): 'budget/0',
    ('series', 'velocity', 0.3, 11.34, 5.0, 32): 'budget/0',
    ('series', 'velocity', 0.3, 11.34, 5.0, 41): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 0.1, 1): '0x1.981d56cab4c48p-4',
    ('series', 'velocity', 0.6, 11.34, 0.1, 3): '0x1.8dcedfb6e38a7p-4',
    ('series', 'velocity', 0.6, 11.34, 0.1, 6): '0x1.6e6fce0eab7bap-4',
    ('series', 'velocity', 0.6, 11.34, 0.1, 10): '0x1.33d9402b7c6bep-4',
    ('series', 'velocity', 0.6, 11.34, 0.1, 20): '0x1.5a279701575a3p-5',
    ('series', 'velocity', 0.6, 11.34, 0.1, 32): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 0.1, 41): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 0.5, 1): '0x1.fc5cbab6cab62p-2',
    ('series', 'velocity', 0.6, 11.34, 0.5, 3): '0x1.e3beb08f25a23p-2',
    ('series', 'velocity', 0.6, 11.34, 0.5, 6): '0x1.9f1116fe5bc5cp-2',
    ('series', 'velocity', 0.6, 11.34, 0.5, 10): '0x1.343974eef6b66p-2',
    ('series', 'velocity', 0.6, 11.34, 0.5, 20): 'cap/10011',
    ('series', 'velocity', 0.6, 11.34, 0.5, 32): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 0.5, 41): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 1.0, 1): '0x1.fb15d8312c08bp-1',
    ('series', 'velocity', 0.6, 11.34, 1.0, 3): '0x1.da677454ee77bp-1',
    ('series', 'velocity', 0.6, 11.34, 1.0, 6): '0x1.8463b1c7ee0dcp-1',
    ('series', 'velocity', 0.6, 11.34, 1.0, 10): '0x1.0cacfa5bac4bep-1',
    ('series', 'velocity', 0.6, 11.34, 1.0, 20): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 1.0, 32): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 1.0, 41): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 5.0, 1): '0x1.39805396229dep+2',
    ('series', 'velocity', 0.6, 11.34, 5.0, 3): '0x1.1144a36737bc8p+2',
    ('series', 'velocity', 0.6, 11.34, 5.0, 6): '0x1.787208c446845p+1',
    ('series', 'velocity', 0.6, 11.34, 5.0, 10): '0x1.a734e70d13f7cp+0',
    ('series', 'velocity', 0.6, 11.34, 5.0, 20): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 5.0, 32): 'budget/0',
    ('series', 'velocity', 0.6, 11.34, 5.0, 41): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 0.1, 1): '0x1.9623e972d5c58p-4',
    ('series', 'velocity', 0.9, 11.34, 0.1, 3): '0x1.7f11d2df50d36p-4',
    ('series', 'velocity', 0.9, 11.34, 0.1, 6): '0x1.4195f002e7193p-4',
    ('series', 'velocity', 0.9, 11.34, 0.1, 10): '0x1.d1ad3a0bd7868p-5',
    ('series', 'velocity', 0.9, 11.34, 0.1, 20): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 0.1, 32): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 0.1, 41): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 0.5, 1): '0x1.fac9c1086e6aap-2',
    ('series', 'velocity', 0.9, 11.34, 0.5, 3): '0x1.d87c1b47ea725p-2',
    ('series', 'velocity', 0.9, 11.34, 0.5, 6): '0x1.80c2bd97e7482p-2',
    ('series', 'velocity', 0.9, 11.34, 0.5, 10): '0x1.0af2326c9359dp-2',
    ('series', 'velocity', 0.9, 11.34, 0.5, 20): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 0.5, 32): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 0.5, 41): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 1.0, 1): '0x1.fa3fc5229b9bfp-1',
    ('series', 'velocity', 0.9, 11.34, 1.0, 3): '0x1.d4b09929c7006p-1',
    ('series', 'velocity', 0.9, 11.34, 1.0, 6): '0x1.76e955728e691p-1',
    ('series', 'velocity', 0.9, 11.34, 1.0, 10): '0x1.fbf1964487657p-2',
    ('series', 'velocity', 0.9, 11.34, 1.0, 20): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 1.0, 32): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 1.0, 41): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 5.0, 1): '0x1.3aebb72a5e363p+2',
    ('series', 'velocity', 0.9, 11.34, 5.0, 3): '0x1.1aca0c70ead63p+2',
    ('series', 'velocity', 0.9, 11.34, 5.0, 6): '0x1.a3d4ce9800ec9p+1',
    ('series', 'velocity', 0.9, 11.34, 5.0, 10): 'cap/10011',
    ('series', 'velocity', 0.9, 11.34, 5.0, 20): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 5.0, 32): 'budget/0',
    ('series', 'velocity', 0.9, 11.34, 5.0, 41): 'budget/0',
    ('series', 'velocity', 0.5, 0.0, 1.0, 1): '0x1.ffa0e129a9766p-1',
    ('series', 'velocity', 0.5, 0.0, 1.0, 50): '0x1.3144b13d929adp-2',
    ('series', 'velocity', 0.5, 0.0, 5.0, 1): '0x1.3ed752b838472p+2',
    ('series', 'velocity', 0.5, 0.0, 5.0, 50): '0x1.3df7812b7622bp-2',
    ('series', 'velocity', 1.0, 11.34, 0.5, 1): '0x1.fa2f279cac217p-2',
    ('series', 'velocity', 1.0, 11.34, 0.5, 10): '0x1.faa98abea09a2p-3',
    ('series', 'velocity', 1.0, 11.34, 0.5, 50): '0x1.3541fe05f4b14p-6',
    ('series', 'velocity', 1.0, 11.34, 5.0, 1): '0x1.3b585cb369338p+2',
    ('series', 'velocity', 1.0, 11.34, 5.0, 10): '0x1.12d73dd7fd44dp+1',
    ('series', 'velocity', 1.0, 11.34, 5.0, 50): '0x1.284570129777ap-3',
    ('series', 'velocity', 1.0, 11.34, 10.0, 1): '0x1.3a378e4f08d39p+3',
    ('series', 'velocity', 1.0, 11.34, 10.0, 10): '0x1.d9897ce0d23ccp+1',
    ('series', 'velocity', 1.0, 11.34, 10.0, 50): '0x1.c683b60d17845p-3',
    ('series', 'velocity', 1.0, 0.0, 0.5, 1): '0x1.ffd06da285140p-2',
    ('series', 'velocity', 1.0, 0.0, 0.5, 10): '0x1.efd5769b85e7ep-2',
    ('series', 'velocity', 1.0, 0.0, 0.5, 50): '0x1.fcd906d862fbep-3',
    ('series', 'velocity', 1.0, 0.0, 5.0, 1): '0x1.3ed752b838472p+2',
    ('series', 'velocity', 1.0, 0.0, 5.0, 10): '0x1.d79f5ab65ac5dp+1',
    ('series', 'velocity', 1.0, 0.0, 5.0, 50): '0x1.3df7817b75b08p-2',
    ('series', 'velocity', 1.0, 0.0, 10.0, 1): '0x1.3db013f4b2757p+3',
    ('series', 'velocity', 1.0, 0.0, 10.0, 10): '0x1.6783cbe3b305ap+2',
    ('gseries', 'velocity', 0.3, 11.34, 0.5, 1): '0x1.fd8d9fce3b41ep-2',
    ('gseries', 'velocity', 0.3, 11.34, 0.5, 10): '0x1.5ebbd82450ea3p-2',
    ('gseries', 'velocity', 0.3, 11.34, 0.5, 50): 'budget',
    ('gseries', 'velocity', 0.3, 11.34, 5.0, 1): '0x1.37e44ece193f5p+2',
    ('gseries', 'velocity', 0.3, 11.34, 5.0, 10): '0x1.46c38f9b401a2p+0',
    ('gseries', 'velocity', 0.3, 11.34, 5.0, 50): 'budget',
    ('gseries', 'velocity', 0.6, 11.34, 0.5, 1): '0x1.fc5cbab6cab62p-2',
    ('gseries', 'velocity', 0.6, 11.34, 0.5, 10): '0x1.343974eef6b42p-2',
    ('gseries', 'velocity', 0.6, 11.34, 0.5, 50): 'budget',
    ('gseries', 'velocity', 0.6, 11.34, 5.0, 1): '0x1.39805396229ddp+2',
    ('gseries', 'velocity', 0.6, 11.34, 5.0, 10): '0x1.a734e70d13fffp+0',
    ('gseries', 'velocity', 0.6, 11.34, 5.0, 50): 'budget',
    ('series', 'stress', 0.3, 11.34, 0.1, 1): '0x1.511b98c414c97p+1',
    ('series', 'stress', 0.3, 11.34, 0.1, 3): '0x1.4d11b294b3da8p+1',
    ('series', 'stress', 0.3, 11.34, 0.1, 6): '0x1.4006f26cc4b77p+1',
    ('series', 'stress', 0.3, 11.34, 0.1, 10): '0x1.241c9676912dep+1',
    ('series', 'stress', 0.3, 11.34, 0.1, 20): '0x1.92f7090c31e87p+0',
    ('series', 'stress', 0.3, 11.34, 0.1, 32): '0x1.ce53509efbd42p-1',
    ('series', 'stress', 0.3, 11.34, 0.1, 41): '0x1.36e1ea78429c4p-1',
    ('series', 'stress', 0.3, 11.34, 0.5, 1): '0x1.0c131f24002b9p+3',
    ('series', 'stress', 0.3, 11.34, 0.5, 3): '0x1.021dd1f46eab3p+3',
    ('series', 'stress', 0.3, 11.34, 0.5, 6): '0x1.c90dd4f361040p+2',
    ('series', 'stress', 0.3, 11.34, 0.5, 10): '0x1.612b52340e4a4p+2',
    ('series', 'stress', 0.3, 11.34, 0.5, 20): '0x1.384fed5e9b208p+1',
    ('series', 'stress', 0.3, 11.34, 0.5, 32): '0x1.10b53dd989228p+0',
    ('series', 'stress', 0.3, 11.34, 0.5, 41): 'cap/10011',
    ('series', 'stress', 0.3, 11.34, 1.0, 1): '0x1.bac94d68b0d3ap+3',
    ('series', 'stress', 0.3, 11.34, 1.0, 3): '0x1.a02f8f9abf0d6p+3',
    ('series', 'stress', 0.3, 11.34, 1.0, 6): '0x1.56dc84e2b7788p+3',
    ('series', 'stress', 0.3, 11.34, 1.0, 10): '0x1.d35935774db31p+2',
    ('series', 'stress', 0.3, 11.34, 1.0, 20): '0x1.515fc4a5f237bp+1',
    ('series', 'stress', 0.3, 11.34, 1.0, 32): 'cap/10011',
    ('series', 'stress', 0.3, 11.34, 1.0, 41): 'budget/0',
    ('series', 'stress', 0.3, 11.34, 5.0, 1): '0x1.64e0079ab4a2fp+5',
    ('series', 'stress', 0.3, 11.34, 5.0, 3): '0x1.268bfc0b000b4p+5',
    ('series', 'stress', 0.3, 11.34, 5.0, 6): '0x1.5f172e19f6ec9p+4',
    ('series', 'stress', 0.3, 11.34, 5.0, 10): '0x1.4ab69d32eeec8p+3',
    ('series', 'stress', 0.3, 11.34, 5.0, 20): 'budget/0',
    ('series', 'stress', 0.3, 11.34, 5.0, 32): 'budget/0',
    ('series', 'stress', 0.3, 11.34, 5.0, 41): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 0.1, 1): '0x1.4dad4fff5eeb6p+2',
    ('series', 'stress', 0.6, 11.34, 0.1, 3): '0x1.43be7ec61ee7fp+2',
    ('series', 'stress', 0.6, 11.34, 0.1, 6): '0x1.25ea9b5bd47dbp+2',
    ('series', 'stress', 0.6, 11.34, 0.1, 10): '0x1.dfdc1df9088a5p+1',
    ('series', 'stress', 0.6, 11.34, 0.1, 20): '0x1.f4c195835b05fp+0',
    ('series', 'stress', 0.6, 11.34, 0.1, 32): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 0.1, 41): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 0.5, 1): '0x1.4ad5e9919dea3p+3',
    ('series', 'stress', 0.6, 11.34, 0.5, 3): '0x1.3806c53c43674p+3',
    ('series', 'stress', 0.6, 11.34, 0.5, 6): '0x1.04d371d85b49ap+3',
    ('series', 'stress', 0.6, 11.34, 0.5, 10): '0x1.726fa54a005cfp+2',
    ('series', 'stress', 0.6, 11.34, 0.5, 20): 'cap/10011',
    ('series', 'stress', 0.6, 11.34, 0.5, 32): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 0.5, 41): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 1.0, 1): '0x1.c32e752132927p+3',
    ('series', 'stress', 0.6, 11.34, 1.0, 3): '0x1.a124f807a9c7bp+3',
    ('series', 'stress', 0.6, 11.34, 1.0, 6): '0x1.4a56337221716p+3',
    ('series', 'stress', 0.6, 11.34, 1.0, 10): '0x1.b1dd31046d6a1p+2',
    ('series', 'stress', 0.6, 11.34, 1.0, 20): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 1.0, 32): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 1.0, 41): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 5.0, 1): '0x1.ef9d102b2f656p+4',
    ('series', 'stress', 0.6, 11.34, 5.0, 3): '0x1.a62b5ead81a72p+4',
    ('series', 'stress', 0.6, 11.34, 5.0, 6): '0x1.131166e2b44c4p+4',
    ('series', 'stress', 0.6, 11.34, 5.0, 10): '0x1.2209fe8a3c611p+3',
    ('series', 'stress', 0.6, 11.34, 5.0, 20): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 5.0, 32): 'budget/0',
    ('series', 'stress', 0.6, 11.34, 5.0, 41): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 0.1, 1): '0x1.30e48f9e9a8e0p+3',
    ('series', 'stress', 0.9, 11.34, 0.1, 3): '0x1.1e203dc56a68dp+3',
    ('series', 'stress', 0.9, 11.34, 0.1, 6): '0x1.d9e67874291bbp+2',
    ('series', 'stress', 0.9, 11.34, 0.1, 10): '0x1.504752ece1f66p+2',
    ('series', 'stress', 0.9, 11.34, 0.1, 20): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 0.1, 32): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 0.1, 41): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 0.5, 1): '0x1.77504de710835p+3',
    ('series', 'stress', 0.9, 11.34, 0.5, 3): '0x1.5b79cecec53b9p+3',
    ('series', 'stress', 0.9, 11.34, 0.5, 6): '0x1.15d849df3b6ccp+3',
    ('series', 'stress', 0.9, 11.34, 0.5, 10): '0x1.77da7f5312168p+2',
    ('series', 'stress', 0.9, 11.34, 0.5, 20): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 0.5, 32): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 0.5, 41): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 1.0, 1): '0x1.a76c8c02f7372p+3',
    ('series', 'stress', 0.9, 11.34, 1.0, 3): '0x1.84a111d3e4742p+3',
    ('series', 'stress', 0.9, 11.34, 1.0, 6): '0x1.30039110fd523p+3',
    ('series', 'stress', 0.9, 11.34, 1.0, 10): 'cap/10011',
    ('series', 'stress', 0.9, 11.34, 1.0, 20): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 1.0, 32): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 1.0, 41): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 5.0, 1): '0x1.501c5873fbff9p+4',
    ('series', 'stress', 0.9, 11.34, 5.0, 3): '0x1.28c1638309274p+4',
    ('series', 'stress', 0.9, 11.34, 5.0, 6): '0x1.a69ff5ccd15e1p+3',
    ('series', 'stress', 0.9, 11.34, 5.0, 10): 'cap/10011',
    ('series', 'stress', 0.9, 11.34, 5.0, 20): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 5.0, 32): 'budget/0',
    ('series', 'stress', 0.9, 11.34, 5.0, 41): 'budget/0',
    ('series', 'stress', 0.5, 0.0, 1.0, 1): '0x1.7a9ae40f78484p+0',
    ('series', 'stress', 0.5, 0.0, 1.0, 50): '0x1.c3cc108e53da8p-2',
    ('series', 'stress', 0.5, 0.0, 5.0, 1): '0x1.d7e284aa3ecfap+2',
    ('series', 'stress', 0.5, 0.0, 5.0, 50): '0x1.d697442d68bd0p-2',
    ('series', 'stress', 1.0, 11.34, 0.5, 1): '0x1.7e0a4fa4c5f53p+3',
    ('series', 'stress', 1.0, 11.34, 0.5, 10): '0x1.78bc982a0e08ep+2',
    ('series', 'stress', 1.0, 11.34, 0.5, 50): '0x1.c560773933925p-2',
    ('series', 'stress', 1.0, 11.34, 5.0, 1): '0x1.26d654892d161p+4',
    ('series', 'stress', 1.0, 11.34, 5.0, 10): '0x1.d339aacb8e27ep+2',
    ('series', 'stress', 1.0, 11.34, 5.0, 50): '0x1.cccd306886ca4p-2',
    ('series', 'stress', 1.0, 11.34, 10.0, 1): '0x1.9967c69b2c942p+4',
    ('series', 'stress', 1.0, 11.34, 10.0, 10): '0x1.0e94d9fa30a72p+3',
    ('series', 'stress', 1.0, 11.34, 10.0, 50): '0x1.d15cbc9e94a30p-2',
    ('series', 'stress', 1.0, 0.0, 0.5, 1): '0x1.7abe13b095ad8p-1',
    ('series', 'stress', 1.0, 0.0, 0.5, 10): '0x1.6eeac34a2087cp-1',
    ('series', 'stress', 1.0, 0.0, 0.5, 50): '0x1.788c1eaa5dba6p-2',
    ('series', 'stress', 1.0, 0.0, 5.0, 1): '0x1.d7e284aa3ecfbp+2',
    ('series', 'stress', 1.0, 0.0, 5.0, 10): '0x1.5d002986f1407p+2',
    ('series', 'stress', 1.0, 0.0, 5.0, 50): '0x1.d69744c0f5dc4p-2',
    ('series', 'stress', 1.0, 0.0, 10.0, 1): '0x1.d62d8e2cb632fp+3',
    ('series', 'stress', 1.0, 0.0, 10.0, 10): '0x1.0a0a7d4737ad2p+3',
    ('gseries', 'stress', 0.3, 11.34, 0.5, 1): '0x1.0c131f24002b9p+3',
    ('gseries', 'stress', 0.3, 11.34, 0.5, 10): '0x1.612b52340e4a5p+2',
    ('gseries', 'stress', 0.3, 11.34, 0.5, 50): 'budget',
    ('gseries', 'stress', 0.3, 11.34, 5.0, 1): '0x1.64e0079ab4a2fp+5',
    ('gseries', 'stress', 0.3, 11.34, 5.0, 10): '0x1.4ab69d32eeda7p+3',
    ('gseries', 'stress', 0.3, 11.34, 5.0, 50): 'budget',
    ('gseries', 'stress', 0.6, 11.34, 0.5, 1): '0x1.4ad5e9919dea3p+3',
    ('gseries', 'stress', 0.6, 11.34, 0.5, 10): '0x1.726fa54a00610p+2',
    ('gseries', 'stress', 0.6, 11.34, 0.5, 50): 'budget',
    ('gseries', 'stress', 0.6, 11.34, 5.0, 1): '0x1.ef9d102b2f64ep+4',
    ('gseries', 'stress', 0.6, 11.34, 5.0, 10): '0x1.2209fe8a3b7afp+3',
    ('gseries', 'stress', 0.6, 11.34, 5.0, 50): 'budget',
    ('series', 'velocity', 0.9, 11.34, 1.0, 10): '0x1.fbf1964487657p-2',
    ('series', 'velocity', 0.3, 11.34, 1.0, 32): 'cancellation/10011',
}

G_PINS = {
    (0.5, -1.5, 1.0, -1.0, 1.0): '0x1.1ca726101e222p-1',
    (0.7, -1.3, 1.0, -0.04, 2.0): '0x1.eb2ab23959515p+0',
    (0.7, -2.0, 3.0, -0.5, 5.0): '0x1.3294cfe359959p+2',
    (0.4, -1.0, 2.0, -3.0, 1.0): '0x1.2171c9f34e2dap-4',
    (0.4, -1.0, 2.0, 3.0, 1.0): '0x1.d9d462f1c9345p+25',
    (1.0, 0.0, 1.0, 2.0, 10.0): '0x1.ceb088b68e6c6p+28',
    (1.0, 0.0, 1.0, -2.0, 2.5): '0x1.b993fe00e4118p-8',
    (1.0, 0.0, 1.0, -5.0, 6.0): 'budget',
    (0.9, 0.5, 4.0, 0.3, 0.1): '0x1.f4b47cd85b623p-9',
    (0.5, -2.0, 1.0, -50.0, 10.0): 'budget',
    (0.01, -1.5, 1.0, -0.5, 1.0): 'degenerate',
    (0.3, -1.0, 1.5, 0.0, 2.0): '0x1.8ada70e9088e6p+0',
    (0.1, -1.1, 1.0, -1.5, 3.0): 'budget',
    (0.2, -1.4, 6.0, -1.2, 0.7): '0x1.a6cfe557f3dc0p-8',
    (0.6, -1.0, 1.0, -8.0, 4.0): 'budget',
    (1.0, 0.0, 1.0, -2.0, 10.0): 'cancellation',
    (1.0, 0.0, 1.0, -4.0, 6.0): 'cancellation',
    (0.8, -1.0, 1.0, -6.0, 4.0): 'budget',
    (0.5, -1.0, 1.0, -9.0, 1.0): 'budget',
    (0.5, -1.0, 1.0, -12.0, 1.0): 'budget',
    (0.7, -1.0, 2.0, -7.0, 3.0): 'budget',
}


def test_kernels_reproduce_pins():
    moved = {case: kernel_outcome(*case) for case in KERNEL_PINS}
    assert {c: v for c, v in moved.items() if v != KERNEL_PINS[c]} == {}


def test_g_function_reproduces_pins():
    moved = {args: g_outcome(args) for args in G_PINS}
    assert {a: v for a, v in moved.items() if v != G_PINS[a]} == {}
