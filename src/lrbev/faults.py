"""Names of the deliberate defects ``lrbev check --fault`` injects into the
oracle suite (see ``lrbev.oracles``), kept apart from the suite so the
command-line parser can offer them without importing it."""

FAULTS = ("ball-radius-r", "offset-bias")
