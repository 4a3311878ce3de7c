"""Vector coded caching for multi-beam satellite downlinks.

Closed-form average sum rate and effective spectral-efficiency gain under
Rician-shadowed fading with matched-filter precoding and imperfect CSIT, a
combinatorial placement/delivery scheduler, and a deterministic Monte Carlo
engine that validates every closed form.
"""

__version__ = "0.1.0"
