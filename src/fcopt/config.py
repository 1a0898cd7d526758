"""Flat key=value configuration files shared by the command line tools.

A configuration file is a plain text file with one ``key = value`` entry
per line.  Blank lines are skipped and ``#`` starts a comment that runs
to the end of the line.  Keys and values are read as stripped strings:
each value is typed and range-checked by the parameter declaration of
the experiment or problem it is for (``experiments.validate``), the same
way as a ``--set`` value.  Command-line flags override file entries
which override the declared defaults.
"""

import os

__all__ = ["parse_config_text", "load_config"]


def parse_config_text(text):
    """Parse ``key = value`` lines into a dict of stripped strings.

    Parameters
    ----------
    text : str
        File contents.

    Returns
    -------
    dict
        Mapping key -> value text, in file order.  Later duplicate keys
        overwrite earlier ones.

    Raises
    ------
    ValueError
        If a non-blank, non-comment line has no ``=`` or an empty key.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(
                "config line %d: expected key=value, got %r" % (lineno, raw.strip()))
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError("config line %d: empty key" % lineno)
        out[key] = val.strip()
    return out


def load_config(path):
    """Read and parse a flat key=value config file.

    Parameters
    ----------
    path : str
        Path to the file.

    Returns
    -------
    dict
        Parsed key -> value text mapping.

    Raises
    ------
    ValueError
        If the file does not exist or a line is malformed.
    """
    if not os.path.isfile(path):
        raise ValueError("config file not found: %s" % path)
    with open(path, "r") as fh:
        return parse_config_text(fh.read())
