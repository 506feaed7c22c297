"""The two-state worked example, every intermediate table printed.

A room should be dim when nobody is present (presence reading below 3)
and bright when somebody is (above 20), with graded tolerances on both
the presence gating and the luminosity levels.  One monitoring step at
presence 3.5 and luminosity 2.34 exercises the whole pipeline:
possibilities, plausibilities, masses, conditional rows, prediction,
emission, combination, conflict, renormalization.

Equivalent to ``evimon demo``.
"""

from evimon.demo import run_walkthrough

run_walkthrough()
