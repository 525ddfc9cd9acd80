"""Meta-learned multilingual pretraining for CTC sequence recognition.

A deliberately small, fully inspectable stack: exact CTC loss and gradients,
a shared bidirectional-recurrent encoder with per-language heads, multitask
and first-order meta-learned pretraining, and synthetic language families on
which transfer effects are measurable in minutes.  Every analytic gradient
in the package is audited against independent oracles (brute-force path
enumeration, central finite differences); `python -m metactc selfcheck`
reruns those audits.
"""

__version__ = "0.1.0"
