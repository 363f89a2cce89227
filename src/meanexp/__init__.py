"""Mean-exponent invariants and bounds for class groups in towers of number fields.

The library computes, at desk scale:

* mean exponents of finite abelian p-groups and their Iwasawa-type
  asymptotics (`groups`);
* genus-theory rank bounds, generator/relation infinitude verdicts, and
  split-criteria for restricted-ramification towers (`towers`);
* the asymptotic Brauer-Siegel optimization over place densities, and the
  mean-exponent upper bounds assembled from it (`tv`);
* dimension series and filtration ranks of finitely presented pro-p groups
  (`propgroups`);
* an independent class-group oracle for imaginary quadratic fields via
  binary quadratic forms (`oracle`);
* a scenario pipeline and CLI tying these together (`scenario`, `cli`).
"""

__version__ = "0.1.0"

#: Largest n_max of the witness scan (`propgroups.theo2_witnesses`, and
#: `propgroup witnesses --N`): beyond it the window end 2^(n+1) of the
#: float-log regime overflows a float.  It lives here so that the CLI reads
#: it without importing propgroups.
WITNESS_N_MAX = 1022
