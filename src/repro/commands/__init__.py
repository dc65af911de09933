"""The CLI's command implementations, one module per tier.

:func:`repro.cli.main` imports only the module of the command it runs,
so a query never pays for the warehouse, the pool or the report
generators:

* :mod:`~repro.commands.queries` -- ``solve``, ``series``,
  ``expected-time``, ``protocol``, ``graphs``, ``mermaid``;
* :mod:`~repro.commands.runs` -- ``phase-diagram``, ``run``,
  ``estimate``, ``sweep``;
* :mod:`~repro.commands.store` -- ``chains``, ``results``, ``metrics``,
  ``obs``;
* :mod:`~repro.commands.reports` -- ``figures``, ``experiments``,
  ``report``.

Each command is ``cmd_<name>`` (dashes as underscores) and takes the
parsed arguments; the parser and the shared argument helpers live in
:mod:`repro.cli`.
"""
