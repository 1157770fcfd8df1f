"""Documentation invariants (fast, tier-1): links, coverage, runnability.

The CI docs job *executes* every documented console command
(``tools/check_docs.py``); these tests pin the cheap halves — intra-repo
links resolve, the CLI reference covers every parser verb, and every
``console`` block contains only commands the checker knows how to run —
so documentation rot fails the ordinary test suite, not just CI.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_documentation_suite_exists():
    for path in ("README.md", "docs/architecture.md", "docs/cli.md"):
        assert (ROOT / path).is_file(), f"missing {path}"


def test_intra_repo_links_resolve(check_docs):
    files = check_docs.doc_files(ROOT)
    assert any(path.name == "README.md" for path in files)
    assert check_docs.check_links(files) == []


def test_console_blocks_contain_only_runnable_commands(check_docs):
    """Every `$ ` command in a ``console`` block must be one the docs
    checker can execute (``repro ...``); illustrative shell belongs in
    plain ``bash`` blocks, which are never run."""
    problems = []
    for path in check_docs.doc_files(ROOT):
        for command in check_docs.iter_console_commands(path):
            if check_docs.command_argv(command) is None:
                problems.append(f"{path.name}: {command}")
    assert problems == []


def test_readme_documents_the_three_entry_points_and_queue():
    text = (ROOT / "README.md").read_text()
    for needle in ("NoiseAwareSizingFlow", "SolverSession", "repro sweep",
                   "repro queue submit", "repro queue work", "--serve",
                   "docs/architecture.md", "docs/cli.md"):
        assert needle in text, f"README.md lost {needle!r}"


def test_cli_reference_covers_every_parser_verb():
    """docs/cli.md must name every (sub)command the parser exposes."""
    from repro.cli import build_parser

    text = (ROOT / "docs" / "cli.md").read_text()
    parser = build_parser()
    subactions = [action for action in parser._actions
                  if hasattr(action, "choices") and action.choices]
    assert subactions, "parser shape changed; update this test"
    for name, sub in subactions[0].choices.items():
        assert f"repro {name}" in text, f"docs/cli.md lost verb {name!r}"
        nested = [action for action in sub._actions
                  if isinstance(getattr(action, "choices", None), dict)
                  and action.choices]
        for action in nested:
            if not all(hasattr(value, "_actions")
                       for value in action.choices.values()):
                continue    # an option's value choices, not subcommands
            for verb in action.choices:
                assert f"repro {name} {verb}" in text, \
                    f"docs/cli.md lost verb {name} {verb!r}"


def test_cli_reference_documents_shard_mode_and_serve():
    text = (ROOT / "docs" / "cli.md").read_text()
    for needle in ("--shard-mode", "--shard-size", "--serve", "--max-idle",
                   "--sessions"):
        assert needle in text, f"docs/cli.md lost {needle!r}"
