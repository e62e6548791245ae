import shutil
import sys
from importlib import resources
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    """A TAUHUNT_DATA_DIR holding copies of the shipped catalogs, which
    the test may edit; the catalog cache is cleared around the test."""
    from tauhunt import catalog

    for name in ("curve_tables.json", "defect_tables.json", "thue_tables.json"):
        with resources.as_file(resources.files("tauhunt.data").joinpath(name)) as src:
            shutil.copy(src, tmp_path / name)
    monkeypatch.setenv("TAUHUNT_DATA_DIR", str(tmp_path))
    catalog.load.cache_clear()
    yield tmp_path
    catalog.load.cache_clear()
