"""Docs stay honest: API.md mirrors the live route table, links resolve.

`docs/API.md` documents each route under a ``### METHOD /path`` heading;
this test diffs that set against `repro.service.http.ROUTES`, so adding
or removing an endpoint without updating the reference fails CI. The
link check walks every relative markdown link in `docs/` and the README
and asserts the target exists; the path check does the same for every
backticked repo path those files name (a glob must match something).
"""

import re
from pathlib import Path

import pytest

from repro.service.http import ROUTES

REPO_ROOT = Path(__file__).resolve().parent.parent
API_DOC = REPO_ROOT / "docs" / "API.md"

_HEADING = re.compile(r"^### (GET|POST|PUT|DELETE|PATCH) (\S+)", re.MULTILINE)
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_REPO_DIRS = ("src/", "tests/", "benchmarks/", "perfbench/", "docs/",
              "examples/", ".github/")
_ROOT_FILE = re.compile(r"^[\w*.-]+\.(json|md)$")
# ``path::test_name`` and ``path:line`` / ``path:line-line`` suffixes.
_SUFFIX = re.compile(r"(::.*|:\d+(-\d+)?)$")


def _documented_routes():
    text = API_DOC.read_text(encoding="utf-8")
    return {
        # Headings escape <id> as &lt;id&gt; so GitHub renders it.
        (m.group(1), m.group(2).replace("&lt;", "<").replace("&gt;", ">"))
        for m in _HEADING.finditer(text)
    }


class TestApiReference:
    def test_api_doc_exists(self):
        assert API_DOC.is_file(), "docs/API.md is missing"

    def test_every_route_documented(self):
        documented = _documented_routes()
        served = {(method, path) for method, path, _ in ROUTES}
        missing = served - documented
        assert not missing, (
            f"routes served but undocumented in docs/API.md: {sorted(missing)}"
        )

    def test_no_phantom_routes_documented(self):
        documented = _documented_routes()
        served = {(method, path) for method, path, _ in ROUTES}
        phantom = documented - served
        assert not phantom, (
            f"routes documented in docs/API.md but not served: "
            f"{sorted(phantom)} — the doc went stale"
        )

    def test_routes_table_is_complete_surface(self):
        # Belt and braces: the handler dispatch is hand-written, so pin
        # the table's shape too.
        assert len(ROUTES) == len({(m, p) for m, p, _ in ROUTES})
        for method, path, summary in ROUTES:
            assert path.startswith("/")
            assert summary


def _markdown_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


@pytest.mark.parametrize(
    "md_file", _markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_relative_links_resolve(md_file):
    text = md_file.read_text(encoding="utf-8")
    broken = []
    for target in _MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md_file.parent / path).resolve()
        try:
            resolved.relative_to(REPO_ROOT)
        except ValueError:
            # Points outside the repo (e.g. the CI badge's ../../actions
            # GitHub URL path) — not checkable on disk.
            continue
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{md_file.name}: broken relative links {broken}"


@pytest.mark.parametrize(
    "md_file", _markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_backticked_repo_paths_exist(md_file):
    text = md_file.read_text(encoding="utf-8")
    missing = []
    for span in _CODE_SPAN.findall(text):
        for word in span.split():
            if not (word.startswith(_REPO_DIRS) or _ROOT_FILE.match(word)):
                continue
            path = _SUFFIX.sub("", word)
            if not any(REPO_ROOT.glob(path.rstrip("/"))):
                missing.append(word)
    assert not missing, f"{md_file.name}: names missing repo paths {missing}"
