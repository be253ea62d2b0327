"""The benchmark's three workloads, each a shipped recipe at fixed scales.

Every scaled config is made by editing the raw YAML mapping of a recipe
under `recipes/` and handing it to `pilotsim.config.parse_config`, so the
scaled configs go through the same validation as a user's file.
"""

from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
RECIPES = ROOT / 'recipes'


def _hybrid(raw, nodes):
    """Weak scaling: pipeline counts scale with the node count."""
    base = raw['resource']['nodes']
    params = raw['workflow']['params']
    raw['resource']['nodes'] = nodes
    params['wf3_count'] = params['wf3_count'] * nodes // base
    params['wf4_count'] = params['wf4_count'] * nodes // base
    # an esmacs pipeline has 4 single-task stages, a ties pipeline 3
    return 4 * params['wf3_count'] + 3 * params['wf4_count']


def _overlay(raw, size):
    items, nodes = size
    raw['resource']['nodes'] = nodes
    raw['workload']['items'] = items
    return items


def _partitioned(raw, tasks):
    raw['workload']['items'] = tasks
    raw.setdefault('output', {})['rate_window'] = 1.0
    return tasks


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    scale: object        # fn(raw mapping, size) -> work units; edits raw
    # scale name -> size argument of `scale`: 'small' and 'large' are
    # timed; 'tiny-small' is the warm-up, the tiny pair the smoke test's.
    # 'small' is a quarter of 'large': over two doublings the scaling
    # exponent's noise is half what it is over one
    sizes: dict


# why each workload is in the benchmark: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload('hybrid-weak', 'fig11-13-hybrid.yaml', _hybrid,
             {'tiny-small': 2, 'tiny-large': 4, 'small': 8, 'large': 32}),
    Workload('overlay-docking', 'fig5-7-wf1-rates.yaml', _overlay,
             {'tiny-small': (1000, 2), 'tiny-large': (2000, 4),
              'small': (12500, 5), 'large': (50000, 20)}),
    Workload('partitioned-launch', 'fig14-partitioned.yaml', _partitioned,
             {'tiny-small': 320, 'tiny-large': 640,
              'small': 2000, 'large': 8000}),
)}


def campaign_raw(workload, scale, seed, out_dir):
    """Raw config mapping of one campaign and its size in work units."""
    wl = WORKLOADS[workload]
    with open(RECIPES / wl.recipe) as fh:
        raw = yaml.safe_load(fh)
    size = wl.scale(raw, wl.sizes[scale])
    raw['seed'] = seed
    raw.setdefault('output', {})['dir'] = str(out_dir)
    return raw, size
