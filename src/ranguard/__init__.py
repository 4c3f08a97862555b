"""Desk-scale Open-RAN early attack detection testbed.

A simulated base station streams per-UE KPM measurements over a small TCP
pub/sub databus; a near-real-time classifier xApp labels each UE's traffic
every measurement period and closes the loop with mitigation commands.

Import each name from its module: `ranguard.pipeline` (collection, training,
evaluation, the closed loop), `ranguard.kpm` (the measurement schema and
datasets), `ranguard.ransim` (the station), `ranguard.xapp` (the classifier),
`ranguard.databus` (the bus) and `ranguard.ml` (the models). The package
imports none of them itself, so a process that needs one layer, such as the
broker's `ranguard.databus`, loads neither numpy nor the other layers.
"""
