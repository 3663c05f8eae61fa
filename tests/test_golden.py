"""Golden digests: the exact bytes every subcommand writes.

Each case runs the CLI in-process into a fresh directory and pins the
sha256 of its standard output and of every file it wrote. A refactor
that must not change output bytes has to leave this table untouched.
A change that alters bytes on purpose reprints the table with
``python3 tests/test_golden.py`` and says why in its description.
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sqzbudget.cli import EXIT_OK, main

# A non-preset run: stage product instead of a measured total, two
# stages, phase jitter and a coarse linear grid.
CUSTOM_CONFIG = """\
eta_total = none
loss_stages = injection:0.95,detection:0.85
sigma_jitter_rad = 0.04
grid_spacing = linear
grid_points = 64
"""

# A dense non-preset run: enough grid points that a chunked writer
# crosses its chunk boundary and ends on a partial chunk.
DENSE_CONFIG = """\
eta_total = 0.55
squeeze_db = 9.5
sigma_jitter_rad = 0.02
grid_points = 20011
"""

CASES = {
    "budget": ["budget"],
    "ledger": ["ledger"],
    "preset": ["preset"],
    "sweep_eta": ["sweep", "--axis", "eta", "--values", "0.3,0.5,0.62,0.8,1.0"],
    "sweep_injected_db": ["sweep", "--axis", "injected_db", "--values", "0,3,6,10,16"],
    "sweep_sigma": ["sweep", "--axis", "sigma", "--values", "0,0.02,0.05,0.1,0.3"],
    "sweep_solve": ["sweep", "--solve-improvement-db", "6"],
    "oracle": ["oracle", "--seed", "42"],
    "custom_budget": ["budget", "--config", "{config}"],
    "dense_budget": ["budget", "--config", "{dense}", "--format", "all"],
    "custom_ledger": ["ledger", "--config", "{config}"],
    "custom_sweep": [
        "sweep", "--config", "{config}", "--axis", "eta",
        "--values", "0.4,0.7,0.95", "--solve-improvement-db", "3",
    ],
}

GOLDEN = {
    'budget': {
        '<stdout>': '2134c16dcbc3c5cacd15aec30867a65112a76cbb23678c7c15f09b66bbf50280',
        'budget.csv': 'bfabfdabfb7bbede6a871d949085c5b97d60a7aaf48b7ca8246dc64ec290a948',
        'spectrum.svg': '30fd124077f007a8324d7c07dd315d11ac8393641edfb98b13b162c2c8b2000b',
        'summary.json': '2134c16dcbc3c5cacd15aec30867a65112a76cbb23678c7c15f09b66bbf50280',
    },
    'custom_budget': {
        '<stdout>': '99a9cc080a0d5b82ce66c557c14597b8ff6f32485b8d577ae2f5798b59074886',
        'budget.csv': '92f2eac0173ed401261352f7df398a46d79730c23a0ac2f9dbab61fb60a390a4',
        'spectrum.svg': '0ad02431edf636d460c134eea0cd1ee71d05098c577cbdf8ec7f849531283b35',
        'summary.json': '99a9cc080a0d5b82ce66c557c14597b8ff6f32485b8d577ae2f5798b59074886',
    },
    'custom_ledger': {
        '<stdout>': '39fad474a416e003e72ac7aebc8b1e5a3acbafd714b9a77b3f4e48603b37ba3e',
        'ledger.csv': '39fad474a416e003e72ac7aebc8b1e5a3acbafd714b9a77b3f4e48603b37ba3e',
    },
    'custom_sweep': {
        '<stdout>': '805b84a1888c02d35b86726fef4bec1b7e035827d9493b4bd2e084a31d71d13e',
        'sweep.csv': '805b84a1888c02d35b86726fef4bec1b7e035827d9493b4bd2e084a31d71d13e',
        'sweep.json': '85746cc40b5b4fef3c6eafe01697a575b15299b5d382a41e90c868acd4bf4b2b',
    },
    'dense_budget': {
        '<stdout>': 'df83473c309abc8382ac547ba2bd685fb56d4730736762fb3a7b29fa01369936',
        'budget.csv': '698cc0ddeb11a7d555ade5a48fce671d2fa64704f6dc9269b0b9bb3087cf4faa',
        'spectrum.svg': '64a2960f46f6df4c3cb638ee9018104e101c1a25b757a9ce67634596a20ebfa2',
        'summary.json': 'df83473c309abc8382ac547ba2bd685fb56d4730736762fb3a7b29fa01369936',
    },
    'ledger': {
        '<stdout>': '0dd62efcc3e5605a9c6bb1486b819ac45dc15a9c8a4474ffc5588f924e3ab4e5',
        'ledger.csv': '0dd62efcc3e5605a9c6bb1486b819ac45dc15a9c8a4474ffc5588f924e3ab4e5',
    },
    'oracle': {
        '<stdout>': '73f673f5bd04d5e80aec0e6874da057155cc8de78553dbb056cba3f1575c06d8',
        'oracle.json': '73f673f5bd04d5e80aec0e6874da057155cc8de78553dbb056cba3f1575c06d8',
    },
    'preset': {
        '<stdout>': '5f4ff47b4c1ae07a75ece51761c536c877f0da46dfdeee9e51ccf9565f93fdac',
    },
    'sweep_eta': {
        '<stdout>': 'd7b1a77ac0941da7c8d25a860352fada3cc6435590f542778ff4001353df59b3',
        'sweep.csv': 'd7b1a77ac0941da7c8d25a860352fada3cc6435590f542778ff4001353df59b3',
        'sweep.json': 'bfed317f04eae3ed7bd6eef113deb8152807b6b3e0b7aa8656ec03173c7bd283',
    },
    'sweep_injected_db': {
        '<stdout>': '7653db29cf8c378c740098a36ce6e83059a93863ba1355212c55444bdcbd675f',
        'sweep.csv': '7653db29cf8c378c740098a36ce6e83059a93863ba1355212c55444bdcbd675f',
        'sweep.json': '8af063fd7b6dacafbf852df6d346e7240363b633a0d61e41c5d72eac136d1c37',
    },
    'sweep_sigma': {
        '<stdout>': '163a2267d8754fa12a3cac8e8d720ae36ba6ad84054d5453130d10e93c17aef6',
        'sweep.csv': '163a2267d8754fa12a3cac8e8d720ae36ba6ad84054d5453130d10e93c17aef6',
        'sweep.json': 'ea15f79817cebbfc0501537f79d9c8e9993f33f039d62872721be81f43898a40',
    },
    'sweep_solve': {
        '<stdout>': '348b8d912d6a8ac58f9c145f15603901c9bf45512fe0429652fdb6b12c6fef88',
        'sweep.json': '348b8d912d6a8ac58f9c145f15603901c9bf45512fe0429652fdb6b12c6fef88',
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: str) -> dict:
    """Run one case under ``workdir``; digest of stdout and each file."""
    paths = {}
    for key, text in (("config", CUSTOM_CONFIG), ("dense", DENSE_CONFIG)):
        paths[key] = os.path.join(workdir, f"{key}.cfg")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(text)
    out = os.path.join(workdir, "out")
    argv = [arg.format(**paths) for arg in CASES[name]]
    if name != "preset":
        argv += ["--out", out]
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == EXIT_OK, f"{name} exited {code}"
    digests = {"<stdout>": _sha(stdout.getvalue().encode("utf-8"))}
    if os.path.isdir(out):
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                digests[fname] = _sha(fh.read())
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    assert run_case(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_case(case, tmp)
        print(f"    {case!r}: {{")
        for fname, digest in digests.items():
            print(f"        {fname!r}: {digest!r},")
        print("    },")
    print("}")
