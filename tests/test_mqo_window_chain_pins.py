"""Golden pins: short sweeps shaped like the e2e workloads decide the same.

Three 400-query streams with the e2e ``steady`` / ``burst`` / ``pressure``
schedule knobs run through ``run_schedule`` on two serial shards.  Each
shard pins ``sha256(repr(session.decisions))`` and its total IV as
``float.hex()``, captured while the rolling window still ticked every
period whether or not anything was pending.  A window chain that sleeps
when idle must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import scale
from repro.mqo import online

#: ``ScheduleSpec`` knobs of the e2e sim workloads (``benchmarks/e2e``).
SPECS = {
    "steady": dict(
        arrival="poisson", interarrival=1.0, max_pending=32,
        population_size=4, generations=2,
    ),
    "burst": dict(
        arrival="burst", interarrival=25.0, burst_size=16, max_pending=64,
        population_size=24, generations=8,
    ),
    "pressure": dict(
        arrival="poisson", interarrival=0.38, max_pending=16,
        population_size=4, generations=2,
    ),
}

#: ``(workload, seed) -> [(decision-log sha256, total IV hex) per shard]``.
#: Seed ``100 * n`` is the first stream of the e2e run ``--seed n``.
GOLDEN_SHARDS = {
    ('steady', 100): [
        ('49d7f7ceafac4ac8e2b9a1ae745d7886167dfbdb824992246046bc28b6a77181',
         '0x1.3d9224f8d0e43p+7'),
        ('9af887bf493c90eee1475c862876d4c86b0ec6760b3c817b7decf68cc0a4202a',
         '0x1.4c50ccce4a972p+7'),
    ],
    ('steady', 200): [
        ('34b8433e886b177d3fc6a129140eebad12a388afb84a97676f1bd70a216bc5c8',
         '0x1.4825a05c148e7p+7'),
        ('fc4b10412ea4ec1c87321b5205295a511c0e1d3e454a9f57f72838ee9bbffda5',
         '0x1.4a5a2c87ce699p+7'),
    ],
    ('steady', 300): [
        ('ba27f57d91776bcc4c301d44e7b9c73b42338d15712e82356fe7808e4ae0ffdb',
         '0x1.46485bf501042p+7'),
        ('102c4021561c6af7d54efb373b543a62007e300673ce2e9be85a877c187ad6e6',
         '0x1.42155cceaec06p+7'),
    ],
    ('burst', 100): [
        ('329ef03f43d500f4167f93998683a3b178c25340cc748711a4597197fea17ac6',
         '0x1.2811dacd21b5ep+7'),
        ('9ce6807a6b3343e8f9c85b25c54282914021b4af53d9ef51cf945115dd70bece',
         '0x1.ff607438d313dp+6'),
    ],
    ('burst', 200): [
        ('eea82125b38f2c0015d7401d6ac1de70306914bcd96ab55cbb64c25b020c6009',
         '0x1.2b3f859e9f66cp+7'),
        ('dd8e38637943792bf0012e7a110a616c3cd8aee124e908e3e0394e6b63ab3e2f',
         '0x1.00787e4aaa463p+7'),
    ],
    ('burst', 300): [
        ('096fa42be690ab494b18b5ee3a59ced178ae2ed8578e997a73c82b15f57f81bf',
         '0x1.2891aa28ef4adp+7'),
        ('ae9beef1364f0ec795c19a888d6dfcd2ebbda2156b3d33bbd124f145d0a82712',
         '0x1.0483f10dcfe1ep+7'),
    ],
    ('pressure', 100): [
        ('294fb5ce68b694bdc17c3652e550140c609b6532b183cf99b82022189ffbcf0f',
         '0x1.53c5f3ac6eb35p+6'),
        ('483d4adaa337a808603e8cc16b2fb0b075f563f12320e041406a806311f52b14',
         '0x1.a23fa774a826ep+6'),
    ],
    ('pressure', 200): [
        ('f619a89ac3cdac50a94a205dc73a6d0e54c9d1189966df2f96b63ea1c5874771',
         '0x1.1302228dbfa39p+7'),
        ('2e347f86fdf9022a0741a5f31257f666bd8ebcc68499e03667a2e4acdf1e1aac',
         '0x1.e83646ca3c807p+6'),
    ],
    ('pressure', 300): [
        ('7d91858e9af5a9af5de48332c04235fbfe915983cfc73be3aa5799d05f38088e',
         '0x1.ca937983bc4c5p+6'),
        ('8bfc1e8e0b04a3cbc98acb6044f8056c0e43f033a05053975462bccb3bfd4be7',
         '0x1.ed59654213fbcp+6'),
    ],
}


def shard_pins(name: str, seed: int, monkeypatch) -> list[tuple[str, str]]:
    """Run one schedule; pin every shard session ``drive`` finished."""
    sessions = []
    drive = online.drive

    def recording_drive(session, clock, *args, **kwargs):
        drive(session, clock, *args, **kwargs)
        sessions.append(session)

    monkeypatch.setattr(online, "drive", recording_drive)
    config = scale.ScaleConfig(
        seed=seed, arrival_seed=seed, executor="serial", shards=2,
    )
    spec = scale.ScheduleSpec(name, queries=400, **SPECS[name])
    result = scale.run_schedule(config, spec)
    assert len(sessions) == result["shards"] == 2
    return [
        (
            hashlib.sha256(repr(session.decisions).encode()).hexdigest(),
            session.decision.total_information_value.hex(),
        )
        for session in sessions
    ]


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_SHARDS))
def test_shard_decisions_are_bit_equal_to_their_pins(name, seed, monkeypatch):
    assert shard_pins(name, seed, monkeypatch) == GOLDEN_SHARDS[name, seed]
