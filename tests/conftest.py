"""Suite-wide set-up: load the hypothesis profile (see ``profiles.py``)."""

from . import profiles  # noqa: F401
