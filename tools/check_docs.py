#!/usr/bin/env python3
"""Docs consistency checks (CI ``docs`` job; also run by the unit tests).

Five checks keep the markdown suite and the code agreeing:

1. **Links** — every intra-repo markdown link in the root ``*.md`` files
   and ``docs/*.md`` resolves to an existing file.
2. **Experiment kinds** — the kind table in ``docs/API.md`` lists exactly
   the kinds registered in ``repro.experiments.SPEC_KINDS``.
3. **Exported symbols** — every name in ``repro.experiments.__all__`` is
   mentioned in ``docs/API.md``.
4. **Docstrings** — every exported symbol of ``repro.experiments`` (and,
   for classes, every public method that does not override a documented
   base-class method) carries a docstring, so ``help()`` agrees with the
   written reference.
5. **Tier names** — every ``engine="X"`` and ``REPRO_DEFAULT_ENGINE=X`` in
   ``README.md`` and ``docs/*.md`` names a tier in
   ``repro.utils.validation.ENGINES``.  ``CHANGES.md`` and ``ROADMAP.md``
   are history and are not checked.

Exit status 0 when all checks pass; 1 with a failure listing otherwise.
Run from anywhere::

    python tools/check_docs.py
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path
from typing import Iterator, List

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` — target captured up to the closing parenthesis.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A row of the docs/API.md kind table: ``| `kind` | ... |``.
KIND_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|")

#: ``engine="X"`` / ``engine='X'`` or ``REPRO_DEFAULT_ENGINE=X``.
TIER_RE = re.compile(r"""engine=["']([A-Za-z_]+)["']|REPRO_DEFAULT_ENGINE=([A-Za-z_]+)""")

#: Schemes that are not filesystem links.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def markdown_files() -> Iterator[Path]:
    """The markdown files whose intra-repo links must resolve."""
    yield from sorted(REPO_ROOT.glob("*.md"))
    yield from sorted((REPO_ROOT / "docs").glob("*.md"))


def check_links() -> List[str]:
    """Return one error per broken intra-repo markdown link."""
    errors = []
    for path in markdown_files():
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for target in LINK_RE.findall(line):
                target = target.split("#", 1)[0]
                if not target or target.startswith(EXTERNAL_PREFIXES):
                    continue
                base = REPO_ROOT if target.startswith("/") else path.parent
                resolved = (base / target.lstrip("/")).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: broken link -> {target}"
                    )
    return errors


def documented_kinds(api_text: str) -> List[str]:
    """Experiment kinds listed in the docs/API.md kind table."""
    kinds = []
    in_table = False
    for line in api_text.splitlines():
        if line.lstrip("| ").startswith("kind "):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                in_table = False
                continue
            match = KIND_ROW_RE.match(line)
            if match:
                kinds.append(match.group(1))
    return kinds


def check_kinds(api_text: str) -> List[str]:
    """docs/API.md kind table == repro.experiments.SPEC_KINDS, exactly."""
    from repro.experiments import SPEC_KINDS

    documented = set(documented_kinds(api_text))
    registered = set(SPEC_KINDS)
    errors = []
    for kind in sorted(registered - documented):
        errors.append(f"docs/API.md: registered kind {kind!r} is not documented")
    for kind in sorted(documented - registered):
        errors.append(f"docs/API.md: documents unknown kind {kind!r}")
    return errors


def check_exported_symbols(api_text: str) -> List[str]:
    """Every repro.experiments export is mentioned in docs/API.md."""
    import repro.experiments as experiments

    return [
        f"docs/API.md: exported symbol {name!r} is not mentioned"
        for name in experiments.__all__
        if name not in api_text
    ]


def _base_has_doc(cls: type, attribute: str) -> bool:
    for base in cls.__mro__[1:]:
        member = base.__dict__.get(attribute)
        if member is None:
            continue
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        if isinstance(member, property):
            member = member.fget
        if (getattr(member, "__doc__", "") or "").strip():
            return True
    return False


def check_docstrings() -> List[str]:
    """Every exported symbol (and public method) carries a docstring.

    ``__init__`` is exempt (dataclasses generate it; constructor arguments
    are documented on the class), and a method overriding a documented
    base-class method inherits its contract.
    """
    import repro.experiments as experiments

    errors = []
    for name in experiments.__all__:
        obj = getattr(experiments, name)
        if not (inspect.isclass(obj) or callable(obj)):
            continue  # plain constants (SCHEMA_VERSION, registries)
        if not (obj.__doc__ or "").strip():
            errors.append(f"repro.experiments.{name}: missing docstring")
            continue
        if not inspect.isclass(obj):
            continue
        for attribute, member in vars(obj).items():
            if attribute.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            elif not inspect.isfunction(member):
                continue
            if (getattr(member, "__doc__", "") or "").strip():
                continue
            if _base_has_doc(obj, attribute):
                continue
            errors.append(f"repro.experiments.{name}.{attribute}: missing docstring")
    return errors


def tier_name_errors(label: str, text: str) -> List[str]:
    """One error per tier name in ``text`` that is not in ``ENGINES``."""
    from repro.utils.validation import ENGINES

    return [
        f"{label}:{number}: {quoted or env!r} is not an engine tier {ENGINES}"
        for number, line in enumerate(text.splitlines(), start=1)
        for quoted, env in TIER_RE.findall(line)
        if (quoted or env) not in ENGINES
    ]


def check_tier_names() -> List[str]:
    """README.md and docs/*.md name only tiers in ``ENGINES``."""
    errors = []
    for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        errors.extend(tier_name_errors(str(path.relative_to(REPO_ROOT)), path.read_text()))
    return errors


def main() -> int:
    """Run every check; print failures and return the exit status."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    api_text = (REPO_ROOT / "docs" / "API.md").read_text()
    errors = (
        check_links()
        + check_kinds(api_text)
        + check_exported_symbols(api_text)
        + check_docstrings()
        + check_tier_names()
    )
    if errors:
        print(f"docs check FAILED ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  {error}")
        return 1
    print("docs check passed: links resolve, kinds, exports and tier names match the code")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
