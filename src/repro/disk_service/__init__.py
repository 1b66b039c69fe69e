"""The RHODOS disk (block) service.

One :class:`DiskServer` fronts each simulated disk (paper section 4:
"there is one disk server corresponding to each disk").  It manages
free space with a fragment bitmap plus the paper's 64x64 free-extent
array, serves reads through a track cache that retrieves what a request
needs and caches the rest of the track, and implements the five service
functions — allocate-block, free-block, flush-block, get-block,
put-block — with the stable-storage semantics the paper gives them:
``put_block`` can store data on its original location, exclusively on
stable storage (a shadow page), or both (the file index table), with
the call returning before or after the stable write; ``get_block`` can
read from main or stable storage.

Any operation on a set of contiguous fragments/blocks is one single
disk reference.
"""
