"""Single source of the package version."""

# card-lint: disable-file=CARD-R01 -- package metadata: the repro facade
# re-exports it for users and packaging, no entry point needs it

__version__ = "1.0.0"
