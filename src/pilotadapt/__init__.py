"""Pilot pattern adaptation for multi-user MIMO OFDM.

Builds pilot patterns from channel second-order statistics, schedules users
under the grouping constraint, evaluates MRC/MRT spectral efficiency with
perfect CSI, and compares against the fixed worst-case pattern baseline both
in Monte Carlo and in the large-system limit.

Each public name is imported from the module that defines it, e.g.
`from pilotadapt.scheduling import grouping_schedule`; importing the package
imports none of its modules.
"""
