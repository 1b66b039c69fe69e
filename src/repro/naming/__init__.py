"""The RHODOS naming service.

Processes refer to devices (TTY objects) and files (FILE objects) by
*attributed names*; the file agent, transaction agent and device agent
refer to them by *system names*.  "The process of evaluation and
resolution of an attributed name of a device or file to its system
name is performed by the RHODOS naming service" (paper section 3).

The service is a binding store with attribute-subset lookup plus a
conventional hierarchical-path convenience layer (a path is just an
attributed name whose ``path`` attribute is set).
"""
