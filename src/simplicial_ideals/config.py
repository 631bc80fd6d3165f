"""The generator budget of the command line tool.

``max_candidates`` resolves in precedence order: the ``--max-candidates``
flag, then the ``SIDEAL_MAX_CANDIDATES`` environment variable, then the
``max_candidates`` key of a config file (``--config`` or ``SIDEAL_CONFIG``),
then DEFAULT_MAX_CANDIDATES.  The file format is flat ``key = value`` lines
with ``#`` comments.  The output format and the verify sweep depth are
flags alone.
"""

import os

from .errors import DEFAULT_MAX_CANDIDATES, ParameterError, require_int

ENV_PREFIX = "SIDEAL_"
KEY = "max_candidates"


def _coerce(raw):
    """The budget given as ``raw``: a string from a file or the environment,
    or a value from a flag or library override."""
    if isinstance(raw, str):
        try:
            raw = int(raw)
        except ValueError:
            raise ParameterError(f"config key {KEY}: expected integer, got {raw!r}")
    require_int(KEY, raw, 1)
    return raw


def parse_config_file(path):
    """The budget a file of ``key = value`` lines sets, or None if it sets
    none.  Unknown keys and bad values are errors that name the file and
    line."""
    budget = None
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key != KEY:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            budget = _coerce(raw.strip())
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return budget


def load_config(config_path=None, max_candidates=None, environ=None):
    """The resolved budget, an int >= 1.

    ``max_candidates`` is the flag's value, checked as a file value is;
    None means unset.  The file is read and every SIDEAL_* variable
    checked whichever source wins: any SIDEAL_* variable but
    SIDEAL_MAX_CANDIDATES and SIDEAL_CONFIG is an error, as an unknown key
    in a file is.
    """
    if environ is None:
        environ = os.environ
    path = config_path or environ.get(ENV_PREFIX + "CONFIG")
    budget = parse_config_file(path) if path else None
    # iterate names only: os.environ decodes each value it yields
    for name in environ:
        if name == ENV_PREFIX + KEY.upper():
            budget = _coerce(environ[name])
        elif name.startswith(ENV_PREFIX) and name != ENV_PREFIX + "CONFIG":
            raise ParameterError(f"unknown environment variable {name}")
    if max_candidates is not None:
        budget = _coerce(max_candidates)
    return DEFAULT_MAX_CANDIDATES if budget is None else budget
