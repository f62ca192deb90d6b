"""Exact arithmetic for pencils of quadrics in P^4 over Q.

Modules by theme: exact arithmetic substrate (exact), pencil invariants
(pencil), quintic Galois profiles and signed Frobenius classes (galois),
finite group/module brute force (groupmod), canonical surface models
(canon), local computations and witness search (localarith), and the
2-Selmer twisting simulator (selmersim).
"""

__version__ = "0.1.0"
