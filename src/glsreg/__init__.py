"""Grand Lebesgue space norms and regulator-of-convergence bounds.

The package has three layers:

- weights and norms: generating functions psi(p), moment curves ||f||_p,
  the sup-norm sup_p ||f||_p / psi(p), and the conjugate tail bound;
- bounds: the moment bound for the a.e.-convergence regulator from a
  moment envelope, and weighted decay-sequence sums cut once their
  remainder is at most rel_tol x the partial sum;
- simulation: counter-based Monte Carlo for the regulator with exact
  oracles (product tails, inclusion-exclusion sandwich, exact moments)
  and a verification suite that compares the two routes.

The package itself defines only ``__version__``: import each name from its
module (``from glsreg.bounds import sigma_function``), whose ``__all__``
lists its public names.
"""

__version__ = "0.1.0"
